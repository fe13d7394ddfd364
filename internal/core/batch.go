package core

import (
	"context"
	"errors"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/imgrn/imgrn/internal/bitvec"
	"github.com/imgrn/imgrn/internal/exec"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/obs"
	"github.com/imgrn/imgrn/internal/plan"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/rstar"
	"github.com/imgrn/imgrn/internal/stats"
)

// Multi-query batch execution (DESIGN.md §14).
//
// QueryBatch answers B queries over one index with cross-query
// amortization that a sequential loop cannot get:
//
//   - One shared R*-tree traversal per γ-group. Queries whose traversal
//     parameters agree (γ, estimator side, ablation switches) descend the
//     index together: every priority-queue entry carries a liveness
//     bitmask of the member queries that admitted it, node pages are
//     touched once per pop instead of once per query, and the per-query
//     signature/gene-range/Lemma-6 tests run against the shared node.
//     Each member's admission chain is evaluated independently, so its
//     candidate-pair SET (and all its traversal pruning counters) are
//     exactly those of a solo run — only the shared page I/O differs.
//   - One plan resolution per distinct (ε, δ, samples, stage-set) group:
//     members of a plan group share one resolved *plan.Plan pointer, the
//     same way the sharded coordinator shares a plan across shards.
//   - Optionally (BatchOptions.SharedPerms), one permutation batch per
//     (seed, source, column, R): Monte Carlo refinement switches to
//     per-(Seed, source)-addressed streams and draws the R permutations
//     of each probed target column once per batch into a shared
//     stats.PermBatch pool, so queries probing the same column pay one
//     blocked inner-product pass instead of R fresh permutations each.
//
// Determinism contract: with SharedPerms off (the default), batch results
// are byte-identical to running the same items sequentially against the
// same engine — per-item processors keep their private sequential RNG
// streams, and refinement runs strictly in item order so a shared
// edge-probability cache warms in exactly the sequential order. With
// SharedPerms on, refinement randomness is (Seed, source, column)
// addressed instead of stream-positional: results are deterministic and
// independent of batch composition and order, but differ from the
// sequential stream (the same contract as the Workers>1 and sharded
// paths). The shared traversal never draws randomness, so it is exact in
// both modes.

// BatchItem is one query of a batch: a query matrix (or a pre-inferred
// query graph) plus its own full parameter set.
type BatchItem struct {
	// Matrix is the query's feature matrix; ignored when Graph is set.
	Matrix *gene.Matrix
	// Graph is an already-inferred query GRN (the sharded scatter path
	// and /query-graph requests supply one); when set, the inference
	// stage is skipped.
	Graph *grn.Graph
	// Params are the item's query parameters. Items may differ in every
	// field; traversal sharing simply groups compatible items.
	Params Params
	// K keeps only the K best answers by appearance probability (ties
	// toward smaller source IDs), exactly like Engine.QueryTopK. K <= 0
	// returns all matches sorted by source.
	K int
}

// BatchResult is one item's outcome.
type BatchResult struct {
	Answers []Answer
	Stats   Stats
	// Err is the item's error (validation, cancellation, per-item
	// timeout). Items fail independently: one bad or slow item never
	// fails its siblings.
	Err error
}

// BatchOptions tunes one QueryBatch call.
type BatchOptions struct {
	// SharedPerms shares Monte Carlo permutation batches across the
	// queries of the batch (see the package comment's determinism
	// contract). Off by default: the default mode is byte-identical to
	// sequential execution.
	SharedPerms bool
	// ItemTimeout bounds each item's active phases (its inference, its
	// traversal group's shared descent, its refinement) individually, so
	// one slow item cannot starve the rest of the batch. 0 disables the
	// per-item bound; the batch context still applies throughout.
	ItemTimeout time.Duration
	// OnResult, when non-nil, is called once per item as the item
	// completes (successfully or not), before QueryBatch returns — the
	// streaming hook behind the server's NDJSON batch endpoint.
	// QueryBatch itself invokes it in item order from the calling
	// goroutine; the sharded coordinator may invoke it out of order.
	OnResult func(i int, res BatchResult)
}

// BatchStats aggregates batch-level execution counters (per-item costs
// live in each BatchResult.Stats).
type BatchStats struct {
	// Queries is the number of items submitted, Errors how many failed.
	Queries int
	Errors  int
	// Groups is the number of shared traversals run (γ-groups, after
	// chunking to the bitmask width); degenerate items (duplicate genes,
	// zero-edge graphs) never join a group.
	Groups int
	// PermFills / PermProbes count shared-permutation batch
	// materializations and the edge probabilities answered from them
	// (zero unless SharedPerms).
	PermFills  int
	PermProbes int
}

func (b *BatchStats) merge(o BatchStats) {
	b.Queries += o.Queries
	b.Errors += o.Errors
	b.Groups += o.Groups
	b.PermFills += o.PermFills
	b.PermProbes += o.PermProbes
}

// Merge folds another batch's counters into b (the sharded coordinator
// sums its per-shard batches).
func (b *BatchStats) Merge(o BatchStats) { b.merge(o) }

// ResolveBatchPlans validates every item and resolves its execution plan
// in place, sharing one resolved *plan.Plan across all items with the
// same plan request — one plan.Resolve per distinct (ε, δ, samples,
// stage-set) group in the batch. Items that already carry a pinned plan
// keep it. The returned slice holds one error per item (nil for valid
// items); callers must skip errored items. Idempotent.
func ResolveBatchPlans(items []BatchItem) []error {
	errs := make([]error, len(items))
	groups := make(map[plan.Request]*plan.Plan)
	for i := range items {
		p := &items[i].Params
		if err := p.Validate(); err != nil {
			errs[i] = err
			continue
		}
		if p.Plan == nil {
			req := p.planRequest()
			pl, ok := groups[req]
			if !ok {
				var err error
				pl, err = plan.Resolve(req)
				if err != nil {
					errs[i] = err
					continue
				}
				groups[req] = pl
			}
			p.Plan = pl
		}
		resolved, err := p.ResolvePlan()
		if err != nil {
			errs[i] = err
			continue
		}
		*p = resolved
	}
	return errs
}

// batchMember is the per-item execution state of one QueryBatch call.
type batchMember struct {
	i     int
	item  *BatchItem
	proc  *Processor
	graph *grn.Graph
	st    Stats
	pairs []candidatePair
	trav  *travState
	err   error
	done  bool
	// degenerate marks items that skip the shared traversal: duplicate
	// query genes (no possible embedding) or zero-edge graphs (inverted
	// file lookup instead of a descent).
	dupGenes  bool
	zeroEdges bool
}

// QueryBatch runs a batch of queries over idx with shared traversals,
// shared plan resolution and (optionally) shared permutation batches.
// It returns one BatchResult per item, in item order; opts.OnResult
// streams them as they complete. Item errors are reported per item, never
// as a batch failure — the only batch-wide abort is ctx cancellation.
func QueryBatch(ctx context.Context, idx *index.Index, items []BatchItem, opts BatchOptions) ([]BatchResult, BatchStats) {
	results := make([]BatchResult, len(items))
	bst := BatchStats{Queries: len(items)}
	if len(items) == 0 {
		return results, bst
	}

	members := make([]*batchMember, len(items))
	finish := func(m *batchMember, answers []Answer) {
		if m.done {
			return
		}
		m.done = true
		if m.err != nil {
			bst.Errors++
		}
		m.st.Answers = len(answers)
		results[m.i] = BatchResult{Answers: answers, Stats: m.st, Err: m.err}
		if opts.OnResult != nil {
			opts.OnResult(m.i, results[m.i])
		}
	}

	// Prologue: validation, shared plan resolution, one processor per
	// item. Each processor owns its item's private sequential RNG
	// streams, exactly as a sequential loop over the engine would.
	planErrs := ResolveBatchPlans(items)
	var pool *permPool
	if opts.SharedPerms {
		pool = newPermPool()
	}
	for i := range items {
		m := &batchMember{i: i, item: &items[i]}
		members[i] = m
		if planErrs[i] != nil {
			m.err = planErrs[i]
			continue
		}
		params := items[i].Params
		if params.Analytic {
			// SharedPerms is a Monte Carlo optimization; analytic items
			// keep their cache and draw nothing.
		} else if opts.SharedPerms {
			// Shared-permutation refinement addresses every probability
			// by (seed, source, column): the pool is the memoization, and
			// a stream-positional cache would mix contracts.
			params.Cache = nil
		}
		proc, err := NewProcessor(idx, params)
		if err != nil {
			m.err = err
			continue
		}
		if opts.SharedPerms && !params.Analytic {
			proc.permPool = pool
		}
		m.proc = proc
		m.st.Plan = proc.params.Plan
	}

	// Inference: in item order, each on its item's own stream (and its
	// own per-item timeout window), so each processor's scorer/pruner
	// stream is positioned exactly where a solo query would leave it when
	// refinement starts.
	for _, m := range members {
		if m.err != nil {
			continue
		}
		if m.item.Graph != nil {
			m.graph = m.item.Graph
			m.st.QueryVertices = m.graph.NumVertices()
			m.st.QueryEdges = m.graph.NumEdges()
		} else if m.item.Matrix == nil {
			m.err = ErrNoBatchQuery
			continue
		} else {
			ictx, cancel := batchWindow(ctx, opts.ItemTimeout)
			start := time.Now()
			ec := m.proc.newExec(ictx)
			q, err := m.proc.inferQueryGraph(ec, m.item.Matrix)
			m.chargeIO(ec)
			ec.Close()
			cancel()
			if err != nil {
				m.err = err
				continue
			}
			m.graph = q
			m.st.InferQuery = time.Since(start)
			m.st.QueryVertices = q.NumVertices()
			m.st.QueryEdges = q.NumEdges()
			m.proc.params.Trace.Record(obs.StageInfer, start, m.st.InferQuery, m.item.Matrix.NumGenes(), q.NumEdges())
		}
		switch {
		case hasDuplicateGenes(m.graph):
			m.dupGenes = true
		case m.graph.NumEdges() == 0:
			m.zeroEdges = true
		default:
			m.trav = buildTravState(m.proc, m.graph)
		}
	}

	// Shared traversal, one descent per γ-group (chunked to the liveness
	// bitmask width). Groups form in item order, so group execution order
	// is deterministic.
	for _, group := range groupTraversals(members) {
		bst.Groups++
		gctx, cancel := batchWindow(ctx, opts.ItemTimeout)
		gStart := time.Now()
		err := batchTraverse(gctx, idx, group)
		gDur := time.Since(gStart)
		cancel()
		for _, m := range group {
			m.st.Traversal = gDur
			if err != nil {
				m.err = err
				continue
			}
			m.proc.params.Trace.Record(obs.StageTraverse, gStart, gDur, m.st.NodePairsVisited, len(m.pairs))
		}
	}

	// Refinement: strictly in item order. With a shared edge-probability
	// cache this reproduces the sequential loop's cache-warmth
	// progression exactly; with SharedPerms the order is immaterial but
	// kept for ordered streaming.
	for _, m := range members {
		if m.err != nil || m.done {
			finish(m, nil)
			continue
		}
		if m.dupGenes {
			// Gene labels are unique within every matrix, so a query
			// repeating a gene can never embed injectively.
			finish(m, nil)
			continue
		}
		rctx, cancel := batchWindow(ctx, opts.ItemTimeout)
		answers, err := m.refineItem(rctx, opts)
		cancel()
		if err != nil {
			m.err = err
			finish(m, nil)
			continue
		}
		if k := m.item.K; k > 0 && m.proc.params.Sink == nil {
			mark := m.proc.params.Trace.Start(obs.StageTopK)
			in := len(answers)
			RankAnswers(answers)
			if len(answers) > k {
				answers = answers[:k]
			}
			mark.End(in, len(answers))
		}
		finish(m, answers)
	}
	if pool != nil {
		bst.PermFills, bst.PermProbes = pool.counters()
	}
	return results, bst
}

// refineItem runs one member's filter + refinement phases on a fresh
// per-item execution context, mirroring queryWithGraph's stage accounting.
func (m *batchMember) refineItem(ctx context.Context, opts BatchOptions) ([]Answer, error) {
	p := m.proc
	ec := p.newExec(ctx)
	defer func() { m.chargeIO(ec); ec.Close() }()
	tr := ec.Tracer()
	st := &m.st

	var sources []int
	if m.zeroEdges {
		// Degenerate query: no edges to traverse for; resolve via the
		// inverted file plus exact containment checks.
		tStart := time.Now()
		sources = p.sourcesContainingAll(m.graph.Genes())
		st.Traversal = time.Since(tStart)
		tr.Record(obs.StageTraverse, tStart, st.Traversal, 0, len(sources))
	} else {
		fStart := time.Now()
		sources = collectSources(queryScratchFor(ec), m.pairs, st)
		tr.Record(obs.StageFilter, fStart, time.Since(fStart), len(m.pairs), st.CandidateMatrices)
	}

	rStart := time.Now()
	var answers []Answer
	var err error
	if opts.SharedPerms && !p.params.Analytic && p.params.Sink == nil && !ec.Parallel() {
		answers, err = p.refineShared(ec, m.graph, sources, st)
	} else {
		answers, err = p.refine(ec, m.graph, sources, st)
	}
	st.Refinement = time.Since(rStart)
	if err != nil {
		return nil, err
	}
	survivors := len(sources) - st.MatricesPrunedL5
	tr.Record(obs.StageMarkov, rStart, st.MarkovPrune, len(sources), survivors)
	tr.Record(obs.StageMonteCarlo, rStart, st.MonteCarlo, survivors, len(answers))
	st.Total = st.InferQuery + st.Traversal + st.Refinement
	return answers, nil
}

// chargeIO folds one execution context's page accounting into the
// member's stats (items use one context per phase, unlike a solo query's
// single context, so the counters accumulate).
func (m *batchMember) chargeIO(ec *exec.Context) {
	io := ec.IO().Stats()
	m.st.IOCost += io.Accesses
	m.st.IOHits += io.Hits
}

// refineShared is sequential refinement under the shared-permutation
// contract: every candidate draws from its own (Seed, source)-addressed
// streams (the refineParallel convention), so results are independent of
// batch composition and candidate order, and the exact edge probabilities
// come from the shared permutation pool via verifyExact.
func (p *Processor) refineShared(ec *exec.Context, q *grn.Graph, sources []int, st *Stats) ([]Answer, error) {
	qEdges := q.Edges()
	ws := queryScratchFor(ec).worker(0)
	var answers []Answer
	for _, src := range sources {
		if err := ec.Err(); err != nil {
			return nil, err
		}
		sc, pr := p.primeScorers(ws, uint64(int64(src)))
		o := p.verifyCandidate(ec.IO(), q, qEdges, src, sc, pr, &ws.bufs)
		st.applyCandidate(o)
		if o.answer != nil {
			answers = append(answers, *o.answer)
		}
	}
	return answers, nil
}

// batchWindow derives one phase's context: the batch context bounded by
// the per-item timeout when one is configured.
func batchWindow(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

// travGroupKey identifies one shared-traversal compatibility class: the
// parameters the descent itself reads. Queries in one group share every
// node pop and differ only in their per-query admission tests.
type travGroupKey struct {
	gamma                                float64
	oneSided                             bool
	disIndex, disPivot, disSig, disRange bool
}

func memberGroupKey(p Params) travGroupKey {
	return travGroupKey{
		gamma:    p.Gamma,
		oneSided: p.OneSided,
		disIndex: p.DisableIndexPruning,
		disPivot: p.DisablePivotPruning,
		disSig:   p.DisableSignatures,
		disRange: p.DisableGeneRange,
	}
}

// groupTraversals buckets the traversable members into γ-groups in item
// order, chunking each group to the 64-query liveness-mask width.
func groupTraversals(members []*batchMember) [][]*batchMember {
	var order []travGroupKey
	byKey := make(map[travGroupKey][]*batchMember)
	for _, m := range members {
		if m.err != nil || m.trav == nil {
			continue
		}
		k := memberGroupKey(m.proc.params)
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], m)
	}
	var out [][]*batchMember
	for _, k := range order {
		g := byKey[k]
		for len(g) > maskWidth {
			out = append(out, g[:maskWidth])
			g = g[maskWidth:]
		}
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// maskWidth is the liveness bitmask width: the maximum number of queries
// one shared descent serves. Larger groups chunk into several descents.
const maskWidth = 64

// travState is one query's traversal state: the highest-degree query
// vertex, its neighbor genes, and the bit-vector signatures of the line
// 9–13 admission tests. The solo descent builds one; the batch descent one
// per member.
type travState struct {
	gsGene     gene.ID
	gsF        float64
	neighbors  []gene.ID // distinct, ascending
	neighborF  []float64 // neighbors as gene-axis coordinates
	qVfS, qVfT *bitvec.Vector
	qVdS, qVdT *bitvec.Vector
}

func buildTravState(p *Processor, q *grn.Graph) *travState {
	b := p.idx.Bits()
	ts := &travState{}
	gs := q.MaxDegreeVertex()
	ts.gsGene = q.Gene(gs)
	ts.gsF = float64(ts.gsGene)
	ts.qVfS = bitvec.New(b)
	ts.qVfS.Set(bitvec.HashGene(ts.gsGene, b))
	ts.qVfT = bitvec.New(b)
	ts.qVdS = p.idx.Inverted().Sources(ts.gsGene).Clone()
	ts.qVdT = bitvec.New(b)
	for _, t := range q.Neighbors(gs) {
		tg := q.Gene(t)
		ts.neighbors = append(ts.neighbors, tg)
		ts.qVfT.Set(bitvec.HashGene(tg, b))
		ts.qVdT.OrInPlace(p.idx.Inverted().Sources(tg))
	}
	slices.Sort(ts.neighbors)
	ts.neighbors = slices.Compact(ts.neighbors)
	for _, g := range ts.neighbors {
		ts.neighborF = append(ts.neighborF, float64(g))
	}
	return ts
}

// sideContainsS reports whether the node's gene-ID MBR range contains the
// member's highest-degree query gene (the s-side range test).
func (ts *travState) sideContainsS(mbr rstar.Rect, geneDim int) bool {
	return mbr.Min[geneDim] <= ts.gsF && ts.gsF <= mbr.Max[geneDim]
}

// anyNeighborIn reports whether some neighbor gene ID lies within the
// node's gene-ID MBR range (the t-side range test).
func (ts *travState) anyNeighborIn(mbr rstar.Rect, geneDim int) bool {
	lo, hi := mbr.Min[geneDim], mbr.Max[geneDim]
	i := sort.SearchFloat64s(ts.neighborF, lo)
	return i < len(ts.neighborF) && ts.neighborF[i] <= hi
}

// batchTraverse is the shared pairwise priority-queue descent for one
// γ-group (Figure 4 lines 2–27, evaluated per member at every entry).
// The priority key of a pair is the minimum of its member queries' solo
// keys — every solo key is the node level, so the shared queue preserves
// each member's depth-first visit order. Every page is touched once per
// pop on the group's shared reader; the group's I/O totals are charged to
// every member's stats afterwards (each member's traversal needed those
// pages — the engine just paid for them once).
//
// A member retires from the descent when no queued pair carries its bit
// any longer (its admission chain is exhausted); a cancelled or timed-out
// group context aborts the whole group at the next check boundary.
func batchTraverse(ctx context.Context, idx *index.Index, group []*batchMember) error {
	p0 := group[0].proc.params
	pt := p0.pivotTest(idx.D())
	d, gamma, oneSided := pt.D, pt.Gamma, pt.OneSided
	geneDim := 2 * d
	io := idx.NewReader()
	defer func() {
		iost := io.Stats()
		for _, m := range group {
			m.st.IOCost += iost.Accesses
			m.st.IOHits += iost.Hits
		}
	}()

	// Group-level gene → member-mask lists: one leaf join per distinct
	// (g_s, neighbor gene) combination serves every member that asked for
	// it (leafScanGroup).
	var sGenes, tGenes []geneMask
	for bi, m := range group {
		bit := uint64(1) << uint(bi)
		sGenes = addGeneMask(sGenes, m.trav.gsGene, bit)
		for _, g := range m.trav.neighbors {
			tGenes = addGeneMask(tGenes, g, bit)
		}
	}

	arena := exec.GrabArena()
	defer arena.Release()
	pq := &queryScratchIn(arena).batchHeap
	pq.reset()
	root := idx.Tree().Root()

	// Seed with the root paired against itself; admission per member.
	idx.TouchNodeTo(io, root)
	rootMask := uint64(0)
	for bi, m := range group {
		if p0.DisableSignatures || rootAdmissibleFor(idx, root, m.trav) {
			rootMask |= 1 << uint(bi)
		}
	}
	if rootMask != 0 {
		pq.push(root.Level(), maskedNodePair{root, root, rootMask})
	}

	pops := 0
	for pq.len() > 0 {
		if pops%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		key, it := pq.pop()
		pops++
		for ms := it.mask; ms != 0; ms &= ms - 1 {
			group[bits.TrailingZeros64(ms)].st.NodePairsVisited++
		}
		ea, eb := it.a, it.b
		idx.TouchNodeTo(io, ea)
		if eb != ea {
			idx.TouchNodeTo(io, eb)
		}
		if ea.IsLeaf() {
			// Lines 16–21: one shared join per gene combination serves
			// every live member.
			leafScanGroup(group, sGenes, tGenes, it.mask, idx.LeafTable(ea), idx.LeafTable(eb), pt)
			continue
		}
		// Lines 22–27: expand child pairs, admission per member.
		for i := 0; i < ea.NumEntries(); i++ {
			ca := ea.Child(i)
			fa, da := idx.NodeSignature(ca)
			sMask := uint64(0)
			for ms := it.mask; ms != 0; ms &= ms - 1 {
				bi := bits.TrailingZeros64(ms)
				m := group[bi]
				// Gene-ID range test: the s-side subtree must contain g_s.
				if !p0.DisableGeneRange && !m.trav.sideContainsS(ca.MBR(), geneDim) {
					m.st.NodePairsPruned += eb.NumEntries()
					continue
				}
				if !p0.DisableSignatures && !m.trav.qVfS.Intersects(fa) {
					m.st.NodePairsPruned += eb.NumEntries()
					continue
				}
				sMask |= 1 << uint(bi)
			}
			if sMask == 0 {
				continue
			}
			for j := 0; j < eb.NumEntries(); j++ {
				cb := eb.Child(j)
				fb, db := idx.NodeSignature(cb)
				// Lemma 6 depends only on the MBR pair and the group's
				// shared (γ, side): memoize it across members.
				l6 := -1
				cMask := uint64(0)
				for ms := sMask; ms != 0; ms &= ms - 1 {
					bi := bits.TrailingZeros64(ms)
					m := group[bi]
					// Gene-ID range test on the t side.
					if !p0.DisableGeneRange && !m.trav.anyNeighborIn(cb.MBR(), geneDim) {
						m.st.NodePairsPruned++
						continue
					}
					// Line 25: gene-name and data-source signature tests.
					if !p0.DisableSignatures &&
						(!m.trav.qVfT.Intersects(fb) || !m.trav.qVdS.IntersectsAll(da, m.trav.qVdT, db)) {
						m.st.NodePairsPruned++
						continue
					}
					// Line 25 (cont.): Lemma 6 index pruning.
					if !p0.DisableIndexPruning {
						if l6 < 0 {
							if index.IndexPrunable(ca.MBR(), cb.MBR(), d, gamma, oneSided) {
								l6 = 1
							} else {
								l6 = 0
							}
						}
						if l6 == 1 {
							m.st.NodePairsPruned++
							continue
						}
					}
					cMask |= 1 << uint(bi)
				}
				if cMask != 0 {
					pq.push(key-1, maskedNodePair{ca, cb, cMask})
				}
			}
		}
	}
	return nil
}

// geneMask pairs a gene with the bitmask of the group members that use it
// (as g_s, or as a neighbor of g_s).
type geneMask struct {
	gene gene.ID
	mask uint64
}

func addGeneMask(list []geneMask, g gene.ID, bit uint64) []geneMask {
	for i := range list {
		if list[i].gene == g {
			list[i].mask |= bit
			return list
		}
	}
	return append(list, geneMask{gene: g, mask: bit})
}

// leafScanGroup runs the leaf-level point-pair checks (lines 16–21) for
// every live member of the group. Per member the outcome is exactly the
// solo descent's — the same point pairs pass the same gene, source and
// pivot filters — but each distinct (g_s, neighbor gene) combination is
// joined once (index.JoinLeaves) for all the members that asked for it, and the
// pivot upper bound, which depends only on the points and the
// group-uniform γ and side, is priced once per matched pair.
func leafScanGroup(group []*batchMember, sGenes, tGenes []geneMask, live uint64,
	ta, tb *index.LeafTable, pt index.PivotTest) {
	var users uint64 // members served by the join in progress
	share := func(source, sCol, tCol int, pruned bool) {
		for ms := users; ms != 0; ms &= ms - 1 {
			m := group[bits.TrailingZeros64(ms)]
			m.st.PointPairsChecked++
			if pruned {
				m.st.PointPairsPruned++
				continue
			}
			m.pairs = append(m.pairs, candidatePair{source: source, sCol: sCol, tCol: tCol})
		}
	}
	for _, sg := range sGenes {
		if sg.mask&live == 0 {
			continue
		}
		for _, tg := range tGenes {
			if users = sg.mask & tg.mask & live; users != 0 {
				index.JoinLeaves(ta, tb, sg.gene, tg.gene, pt, share)
			}
		}
	}
}

// rootAdmissibleFor is the line 9–13 admission test on the root itself.
func rootAdmissibleFor(idx *index.Index, root *rstar.Node, ts *travState) bool {
	f, dsig := idx.NodeSignature(root)
	return ts.qVfS.Intersects(f) && ts.qVfT.Intersects(f) && ts.qVdS.IntersectsAll(dsig, ts.qVdT)
}

// permPool is the batch-wide shared permutation store of the SharedPerms
// mode: one stats.PermBatch per (seed, source, target column, R),
// filled from a stream addressed by those coordinates alone — so an
// entry's contents never depend on when (or whether) it was cached, and
// capacity overflow only costs a refill, never a different answer.
// Probes are mutex-serialized: parallel refinement workers of one batch
// share the pool.
type permPool struct {
	mu      sync.Mutex
	est     *stats.Estimator
	entries map[permPoolKey]*permPoolEntry
	bytes   int
	// overflow is the fill-and-discard scratch used once the byte budget
	// is exhausted; results are identical either way.
	overflow permPoolEntry
	srcs     [1][]float64
	dst      [1]float64
	fills    int
	probes   int
}

type permPoolKey struct {
	seed    uint64
	src     int
	col     int
	samples int
}

type permPoolEntry struct {
	pb stats.PermBatch
	xt []float64
}

// maxPermPoolBytes bounds the pool's materialized permutation matrices
// (per batch, per shard). Past the budget, probes refill the overflow
// scratch instead of caching — deterministic, just slower.
const maxPermPoolBytes = 64 << 20

// permPoolTag separates the pool's seed coordinates from the
// per-candidate refinement streams derived from the same base seed.
const permPoolTag = 0x70b5a7c4e1d2938f

func newPermPool() *permPool {
	return &permPool{est: stats.NewEstimator(0), entries: make(map[permPoolKey]*permPoolEntry)}
}

func (p *permPool) counters() (fills, probes int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fills, p.probes
}

// prob answers one exact edge probability from the shared permutations of
// (seed, src, col): the R permutations of xt are drawn once per batch
// from the (seed, src, col)-addressed stream, and each probe is one
// blocked inner-product pass of xa against them.
func (p *permPool) prob(seed uint64, src, col, samples int, oneSided bool, xa, xt []float64) float64 {
	if samples <= 0 {
		samples = stats.DefaultSamples
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	key := permPoolKey{seed: seed, src: src, col: col, samples: samples}
	e, ok := p.entries[key]
	if !ok {
		cost := samples * len(xt) * 8
		if p.bytes+cost <= maxPermPoolBytes {
			e = &permPoolEntry{}
			p.bytes += cost
			p.entries[key] = e
		} else {
			e = &p.overflow
		}
		e.xt = append(e.xt[:0], xt...)
		p.est.Reseed(randgen.SeedFrom(seed^seedScorer, permPoolTag, uint64(src), uint64(col)))
		e.pb.Fill(p.est, e.xt, samples)
		p.fills++
	}
	p.probes++
	p.srcs[0] = xa
	e.pb.EdgeProbabilitiesInto(p.dst[:], p.srcs[:], oneSided)
	p.srcs[0] = nil
	return p.dst[0]
}

// ErrNoBatchQuery rejects batch items carrying neither a query matrix
// nor a pre-inferred query graph.
var ErrNoBatchQuery = errors.New("core: batch item has no query matrix or graph")
