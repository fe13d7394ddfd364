package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/imgrn/imgrn/internal/bitvec"
	"github.com/imgrn/imgrn/internal/exec"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/obs"
	"github.com/imgrn/imgrn/internal/pagestore"
	"github.com/imgrn/imgrn/internal/pivot"
	"github.com/imgrn/imgrn/internal/rstar"
	"github.com/imgrn/imgrn/internal/stats"
)

// Processor answers IM-GRN queries over one index (Figure 4).
//
// Every Monte Carlo draw comes from a stream addressed by its work unit:
// a query-inference target column by (Seed, column), a refinement edge by
// (Seed, source, column pair). A query graph and its answers are therefore
// functions of the index contents and Params alone, at every Workers. A
// Processor holds nothing beyond its params and is safe for concurrent
// use; QueryContext attaches cancellation, deadlines and a worker budget.
type Processor struct {
	idx      *index.Index
	params   Params
	analytic grn.AnalyticScorer
}

// NewProcessor returns a processor for idx with the given parameters.
// The query plan is resolved here: a nil params.Plan becomes the fixed
// default plan (byte-identical to the pre-planner pipeline), and the
// plan's decisions — sample count, prune-stage switches, inference
// kernel — are applied onto the effective params every stage reads.
func NewProcessor(idx *index.Index, params Params) (*Processor, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	params, err := params.ResolvePlan()
	if err != nil {
		return nil, err
	}
	return &Processor{
		idx:      idx,
		params:   params,
		analytic: grn.AnalyticScorer{OneSided: params.OneSided},
	}, nil
}

// Seed-space separation constants: the scorer and pruner streams of one
// work unit must stay distinct.
const (
	seedScorer = 0xa5b35705f39c2d17
	seedPruner = 0x94d049bb133111eb
)

// Params returns the processor's parameters.
func (p *Processor) Params() Params { return p.params }

// newExec builds the per-query execution context: the caller's ctx, a
// fresh per-query I/O reader (cold buffer, private counters; none for the
// index-free processor of InferQuery), the configured worker budget, the
// optional trace collector, and a pooled scratch arena. Callers must Close
// the context (releasing the arena) once the query's answers have been
// assembled.
func (p *Processor) newExec(ctx context.Context) *exec.Context {
	var io *pagestore.Reader
	if p.idx != nil {
		io = p.idx.NewReader()
	}
	return exec.New(ctx, io, p.params.Workers).
		WithTracer(p.params.Trace).
		WithArena(exec.GrabArena())
}

// InferQuery infers the query GRN of mq under params (Fig. 4 line 1)
// without an index: inference reads only the query matrix, so a
// coordinator infers a matrix query once and ships the graph to every
// shard. Cancellation is honored, and params.Workers > 1 fans the target
// columns out across the worker pool. The returned Stats carry the
// inference time and the graph's size; the infer span lands on
// params.Trace.
func InferQuery(ctx context.Context, mq *gene.Matrix, params Params) (*grn.Graph, Stats, error) {
	var st Stats
	p, err := NewProcessor(nil, params)
	if err != nil {
		return nil, st, err
	}
	ec := p.newExec(ctx)
	defer ec.Close()
	q, err := p.infer(ec, mq, &st)
	return q, st, err
}

// InferQueryGraph reconstructs the query GRN Q from the query matrix
// (Fig. 4 line 1), with Lemma-3 edge inference pruning ahead of each
// Monte Carlo estimate. It returns the graph Query matches.
func (p *Processor) InferQueryGraph(mq *gene.Matrix) (*grn.Graph, error) {
	return p.inferQueryGraph(exec.Background(nil), mq)
}

// inferQueryGraph is InferQueryGraph under an execution context.
func (p *Processor) inferQueryGraph(ec *exec.Context, mq *gene.Matrix) (*grn.Graph, error) {
	if p.params.Analytic {
		return grn.Infer(mq, p.analytic, p.params.Gamma)
	}
	return p.inferPruned(ec, mq)
}

// infer is the infer stage of a query: the query graph, its inference
// time and size in st, and the infer span.
func (p *Processor) infer(ec *exec.Context, mq *gene.Matrix, st *Stats) (*grn.Graph, error) {
	start := time.Now()
	q, err := p.inferQueryGraph(ec, mq)
	if err != nil {
		return nil, fmt.Errorf("core: inferring query graph: %w", err)
	}
	st.InferQuery = time.Since(start)
	st.QueryVertices = q.NumVertices()
	st.QueryEdges = q.NumEdges()
	ec.Tracer().Record(obs.StageInfer, start, st.InferQuery, mq.NumGenes(), q.NumEdges())
	return q, nil
}

// candidatePair is a surviving (source, column, column) gene pair.
type candidatePair struct {
	source     int
	sCol, tCol int
}

// Query runs the IM-GRN_Processing algorithm for query matrix mq and
// returns the matching data sources with statistics. Results are sorted by
// data source ID.
func (p *Processor) Query(mq *gene.Matrix) ([]Answer, Stats, error) {
	return p.QueryContext(context.Background(), mq)
}

// QueryContext is Query under an explicit context: traversal and
// refinement honor ctx cancellation and deadlines at loop boundaries, and
// params.Workers > 1 parallelizes query inference and candidate
// refinement across a bounded worker pool.
func (p *Processor) QueryContext(ctx context.Context, mq *gene.Matrix) ([]Answer, Stats, error) {
	var st Stats
	st.Plan = p.params.Plan
	start := time.Now()
	ec := p.newExec(ctx)
	defer ec.Close()

	// Line 1: infer the exact query graph Q.
	q, err := p.infer(ec, mq, &st)
	if err != nil {
		return nil, st, err
	}

	answers, err := p.queryWithGraph(ec, q, &st)
	if err != nil {
		return nil, st, err
	}
	p.finishStats(ec, &st, len(answers))
	st.Total = time.Since(start)
	return answers, st, nil
}

// finishStats fills the end-of-query counters shared by the entry points:
// per-query I/O accounting and the answer count.
func (p *Processor) finishStats(ec *exec.Context, st *Stats, answers int) {
	io := ec.IO().Stats()
	st.IOCost = io.Accesses
	st.IOHits = io.Hits
	st.Answers = answers
}

// QueryGraph answers an IM-GRN query for an already-inferred query GRN,
// e.g. a hand-drawn biomarker pattern.
func (p *Processor) QueryGraph(q *grn.Graph) ([]Answer, Stats, error) {
	return p.QueryGraphContext(context.Background(), q)
}

// QueryGraphContext is QueryGraph under an explicit context.
func (p *Processor) QueryGraphContext(ctx context.Context, q *grn.Graph) ([]Answer, Stats, error) {
	var st Stats
	st.Plan = p.params.Plan
	start := time.Now()
	ec := p.newExec(ctx)
	defer ec.Close()
	st.QueryVertices = q.NumVertices()
	st.QueryEdges = q.NumEdges()
	answers, err := p.queryWithGraph(ec, q, &st)
	if err != nil {
		return nil, st, err
	}
	p.finishStats(ec, &st, len(answers))
	st.Total = time.Since(start)
	return answers, st, nil
}

func (p *Processor) queryWithGraph(ec *exec.Context, q *grn.Graph, st *Stats) ([]Answer, error) {
	// Gene labels are unique within every matrix, so a query repeating a
	// gene can never embed injectively: no matrix can host it.
	if hasDuplicateGenes(q) {
		return nil, nil
	}
	tr := ec.Tracer()
	qEdges := q.Edges()
	tStart := time.Now()
	var sources []int
	if len(qEdges) == 0 {
		// Degenerate query: no edges to traverse for. Every matrix
		// containing all query genes matches with Pr{G} = 1 (empty
		// product); resolve via the inverted file plus exact checks.
		sources = p.sourcesContainingAll(q.Genes())
		st.Traversal = time.Since(tStart)
		tr.Record(obs.StageTraverse, tStart, st.Traversal, 0, len(sources))
	} else {
		ts := buildTravState(p, q)
		pairs, err := p.traverse(ec, ts, st)
		if err != nil {
			return nil, err
		}
		st.Traversal = time.Since(tStart)
		tr.Record(obs.StageTraverse, tStart, st.Traversal, st.NodePairsVisited, len(pairs))
		fStart := time.Now()
		sources = reduceCandidates(queryScratchFor(ec), pairs, len(ts.neighbors), st)
		tr.Record(obs.StageFilter, fStart, time.Since(fStart), len(pairs), st.CandidateMatrices)
	}

	rStart := time.Now()
	answers, err := p.refine(ec, q, qEdges, sources, st)
	st.Refinement = time.Since(rStart)
	if err == nil {
		// The two refinement sub-stages carry aggregate per-candidate
		// durations (see Stats); their candidate flow is matrices in →
		// Lemma-5 survivors → answers. The degenerate zero-edge path
		// leaves CandidateMatrices at 0, so count the sources directly.
		survivors := len(sources) - st.MatricesPrunedL5
		tr.Record(obs.StageMarkov, rStart, st.MarkovPrune, len(sources), survivors)
		tr.Record(obs.StageMonteCarlo, rStart, st.MonteCarlo, survivors, len(answers))
	}
	return answers, err
}

// hasDuplicateGenes reports whether two query vertices share a gene label.
// Queries hold a handful of vertices, so the quadratic scan beats a map.
func hasDuplicateGenes(q *grn.Graph) bool {
	genes := q.Genes()
	for i, g := range genes {
		if slices.Contains(genes[:i], g) {
			return true
		}
	}
	return false
}

// sourcesContainingAll returns data sources whose matrices contain every
// query gene, using IF signatures as a pre-filter.
func (p *Processor) sourcesContainingAll(genes []gene.ID) []int {
	if len(genes) == 0 {
		// The empty query embeds trivially everywhere with Pr{G} = 1.
		out := make([]int, 0, p.idx.DB().Len())
		for _, m := range p.idx.DB().Matrices() {
			out = append(out, m.Source)
		}
		return out
	}
	// Intersect progressively: a source must appear in every IF entry.
	b := p.idx.Bits()
	sig := p.idx.Inverted().Sources(genes[0]).Clone()
	for _, g := range genes[1:] {
		sig.AndInPlace(p.idx.Inverted().Sources(g))
	}
	var out []int
	for _, m := range p.idx.DB().Matrices() {
		if !sig.Test(bitvec.HashSource(m.Source, b)) {
			continue
		}
		ok := true
		for _, g := range genes {
			if !m.Has(g) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, m.Source)
		}
	}
	return out
}

// pivotTest is the leaf-level point check (line 20 of Figure 4) these
// parameters ask for, over an index with d pivots per matrix.
func (p Params) pivotTest(d int) index.PivotTest {
	return index.PivotTest{D: d, Gamma: p.Gamma, OneSided: p.OneSided, Disabled: p.DisablePivotPruning}
}

// travState is a query's traversal state: the highest-degree query
// vertex, its neighbor genes, and the bit-vector signatures of the line
// 9–13 admission tests.
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
// highest-degree query gene (the s-side range test).
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

// rootAdmissibleFor is the line 9–13 admission test on the root itself.
func rootAdmissibleFor(idx *index.Index, root *rstar.Node, ts *travState) bool {
	f, dsig := idx.NodeSignature(root)
	return ts.qVfS.Intersects(f) && ts.qVfT.Intersects(f) && ts.qVdS.IntersectsAll(dsig, ts.qVdT)
}

// cancelCheckInterval bounds how many priority-queue pops the traversal
// performs between context checks.
const cancelCheckInterval = 64

// traverse implements lines 2–27 of Figure 4: the pairwise priority-queue
// descent of the index for ts, the highest-degree query gene and its
// neighbors. Page accesses are charged to the execution context's reader;
// the descent aborts with ctx.Err() when the context is cancelled.
func (p *Processor) traverse(ec *exec.Context, ts *travState, st *Stats) ([]candidatePair, error) {
	io := ec.IO()
	pt := p.params.pivotTest(p.idx.D())
	geneDim := 2 * pt.D
	// The floor certificate (DESIGN.md §2.0 finding 2): no pivot bound over
	// this index falls below its floor, so a test at a γ under the floor
	// cannot prune and is not evaluated. Lemma 6's MBR form takes the
	// one-sided floor under either measure.
	yMin := p.idx.YMin()
	pt.Disabled = pt.Disabled || pivot.BoundFloor(yMin, pt.OneSided) > pt.Gamma
	nodeTest := !p.params.DisableIndexPruning && pivot.BoundFloor(yMin, true) <= pt.Gamma

	qs := queryScratchFor(ec)
	pq := &qs.heap
	pq.reset()
	out := qs.candPairs[:0]
	keep := func(source, sCol, tCol int, pruned bool) {
		st.PointPairsChecked++
		if pruned {
			st.PointPairsPruned++
			return
		}
		out = append(out, candidatePair{source: source, sCol: sCol, tCol: tCol})
	}

	// Seed with the root paired against itself; the loop below performs
	// the lines 9–13 pairwise entry expansion uniformly.
	root := p.idx.Tree().Root()
	p.idx.TouchNodeTo(io, root)
	if p.params.DisableSignatures || rootAdmissibleFor(p.idx, root, ts) {
		pq.push(root.Level(), nodePair{root, root})
	}

	for pq.len() > 0 {
		if st.NodePairsVisited%cancelCheckInterval == 0 {
			if err := ec.Err(); err != nil {
				return nil, err
			}
		}
		key, pair := pq.pop()
		st.NodePairsVisited++
		ea, eb := pair.a, pair.b
		p.idx.TouchNodeTo(io, ea)
		if eb != ea {
			p.idx.TouchNodeTo(io, eb)
		}
		if ea.IsLeaf() {
			// Lines 16–21: pairwise point checks, as a source join per
			// neighbor gene.
			ta, tb := p.idx.LeafTable(ea), p.idx.LeafTable(eb)
			for _, tg := range ts.neighbors {
				index.JoinLeaves(ta, tb, ts.gsGene, tg, pt, keep)
			}
			continue
		}
		// Lines 22–27: expand child pairs.
		for i := 0; i < ea.NumEntries(); i++ {
			ca := ea.Child(i)
			// Gene-ID range test: the s-side subtree must contain g_s.
			if !p.params.DisableGeneRange && !ts.sideContainsS(ca.MBR(), geneDim) {
				st.NodePairsPruned += eb.NumEntries()
				continue
			}
			fa, da := p.idx.NodeSignature(ca)
			if !p.params.DisableSignatures && !ts.qVfS.Intersects(fa) {
				st.NodePairsPruned += eb.NumEntries()
				continue
			}
			for j := 0; j < eb.NumEntries(); j++ {
				cb := eb.Child(j)
				// Gene-ID range test on the t side.
				if !p.params.DisableGeneRange && !ts.anyNeighborIn(cb.MBR(), geneDim) {
					st.NodePairsPruned++
					continue
				}
				fb, db := p.idx.NodeSignature(cb)
				// Line 25: gene-name and data-source signature tests.
				if !p.params.DisableSignatures &&
					(!ts.qVfT.Intersects(fb) || !ts.qVdS.IntersectsAll(da, ts.qVdT, db)) {
					st.NodePairsPruned++
					continue
				}
				// Line 25 (cont.): Lemma 6 index pruning.
				if nodeTest && index.IndexPrunable(ca.MBR(), cb.MBR(), pt.D, pt.Gamma, pt.OneSided) {
					st.NodePairsPruned++
					continue
				}
				pq.push(key-1, nodePair{ca, cb})
			}
		}
	}
	qs.candPairs = out // keep the grown capacity for the next query
	return out, nil
}

// reduceCandidates is the hand-off from traversal to refinement: it sorts
// the sources of the surviving point pairs and keeps, ascending, those
// holding a pair for every one of g_s's distinct neighbor genes (their
// count is neighbors). A matrix missing one cannot host the query's
// highest-degree star, whether the gene is absent or a no-false-dismissal
// test dismissed the edge; the ablation switches only ever add pairs.
// Each (source, gene) vector lives in one leaf and a leaf pair is visited
// once, so a source's run holds each neighbor at most once and its length
// counts the neighbors that survived. Gene labels are unique per matrix,
// so the distinct candidate vectors are g_s and its neighbors in every
// kept source. The result lives in the query scratch.
func reduceCandidates(qs *queryScratch, pairs []candidatePair, neighbors int, st *Stats) []int {
	srcs := qs.sources[:0]
	for _, c := range pairs {
		srcs = append(srcs, c.source)
	}
	qs.sources = srcs // keep the grown capacity for the next query
	slices.Sort(srcs)
	kept := 0
	for i := 0; i < len(srcs); {
		j := i + 1
		for j < len(srcs) && srcs[j] == srcs[i] {
			j++
		}
		if j-i >= neighbors {
			srcs[kept] = srcs[i]
			kept++
		}
		i = j
	}
	st.CandidateMatrices = kept
	st.CandidateGenes = kept * (1 + neighbors)
	return srcs[:kept]
}

// candOutcome is the per-candidate result of verifyCandidate, aggregated
// into Stats deterministically (in source order) by refine.
type candOutcome struct {
	answer      *Answer
	prunedL5    bool
	cacheHits   int
	cacheMisses int
	draws       int

	// Stage timings of this candidate: the Lemma-5 upper-bound test and
	// the exact Monte Carlo verification. Aggregated into
	// Stats.MarkovPrune / Stats.MonteCarlo.
	markovDur time.Duration
	verifyDur time.Duration
}

func (st *Stats) applyCandidate(o candOutcome) {
	if o.prunedL5 {
		st.MatricesPrunedL5++
	}
	st.CacheHits += o.cacheHits
	st.CacheMisses += o.cacheMisses
	st.Draws += o.draws
	st.MarkovPrune += o.markovDur
	st.MonteCarlo += o.verifyDur
}

// colBufs is the reusable scratch space of one verification stream.
type colBufs struct {
	a, b  []float64
	cols  []int      // query-vertex → matrix-column mapping scratch
	edges []grn.Edge // matched edges so far; copied out only into an Answer

	// Monte Carlo verification: per query edge its estimate, a bound on
	// it, or 1 while unknown; the edges left to draw; and per query vertex
	// its fetched column (nil until fetched).
	vals    []float64
	pending []pendingEdge
	vcols   [][]float64
}

// pendingEdge is a query edge verifyExact must draw, with its
// normal-approximation probability, the order key.
type pendingEdge struct {
	i   int
	key float64
}

// growCols returns the cols scratch resized to n (contents unspecified).
func (b *colBufs) growCols(n int) []int {
	if cap(b.cols) < n {
		b.cols = make([]int, n)
	}
	b.cols = b.cols[:n]
	return b.cols
}

// growVCols returns the per-vertex column scratch for n vertices, every
// column emptied (not yet fetched) with its capacity kept.
func (b *colBufs) growVCols(n int) [][]float64 {
	for len(b.vcols) < n {
		b.vcols = append(b.vcols, nil)
	}
	vcols := b.vcols[:n]
	for v := range vcols {
		vcols[v] = vcols[v][:0]
	}
	return vcols
}

// markovFutile reports whether the index certifies that Lemma 5 cannot
// prune any candidate of a query with the given number of edges at
// params.Alpha. Each factor of a candidate's product is at least the
// point floor (pivot.BoundFloor); multiplying that floor the same number
// of times, from 1, with the same monotone rounding gives a lower bound on
// the computed product itself, so a floor product above α proves every
// candidate's product is too.
func (p *Processor) markovFutile(edges int) bool {
	floor := pivot.BoundFloor(p.idx.YMin(), p.params.OneSided)
	prod := 1.0
	for i := 0; i < edges; i++ {
		prod *= floor
	}
	return prod > p.params.Alpha
}

// verifyCandidate checks one candidate matrix at the α cutoff alpha:
// Lemma-5 graph existence pruning on pivot upper bounds (unless
// skipMarkov), then exact verification of Definition 4, reading
// standardized vectors from the paged heap file charged to io and drawing
// Monte Carlo samples with the estimators of worker scratch ws. Refinement
// passes params.Alpha, or under a top-k sink the sink floor (the k-th
// probability so far), which turns the running product cutoff into
// cross-shard top-k pruning. skipMarkov skips the Lemma-5 product: the plan
// switched it off, the index certifies it cannot prune (markovFutile), or
// the caller already evaluated it (the sink's bound order precomputes the
// same product).
func (p *Processor) verifyCandidate(io pagestore.Toucher, q *grn.Graph, qEdges []grn.Edge, src int,
	ws *workerScratch, alpha float64, skipMarkov bool) candOutcome {
	var out candOutcome
	m := p.idx.DB().BySource(src)
	if m == nil {
		return out
	}
	// Map query vertices to columns by gene ID (labels are unique within a
	// matrix, so the embedding is forced).
	cols := ws.bufs.growCols(q.NumVertices())
	for v := 0; v < q.NumVertices(); v++ {
		c := m.IndexOf(q.Gene(v))
		if c < 0 {
			return out
		}
		cols[v] = c
	}
	// Lemma 5: prune with the product of pivot-based edge upper bounds.
	// Skipping it (skipMarkov) sends the candidate straight to
	// verification. That is answer-safe per candidate — Lemma 5 only
	// removes candidates that provably cannot match — and a verified
	// candidate's answer is a function of its own edges' streams, so
	// neither this decision nor any other candidate's (dropped, pruned,
	// cached) moves it.
	//
	// The clock is read three times per candidate: the reading that ends
	// the Lemma-5 stage also starts verification.
	var vStart time.Time
	if skipMarkov {
		vStart = time.Now()
	} else {
		mStart := time.Now()
		if emb := p.idx.Embedding(src); emb != nil && len(qEdges) > 0 {
			ub := 1.0
			for _, e := range qEdges {
				ub *= emb.UpperBound(cols[e.S], cols[e.T], p.params.OneSided)
				if ub <= alpha {
					break
				}
			}
			out.prunedL5 = grn.PruneByGraphExistence(ub, alpha)
		}
		vStart = time.Now()
		out.markovDur = vStart.Sub(mStart)
		if out.prunedL5 {
			return out
		}
	}
	out.answer = p.verifyExact(io, q, qEdges, src, m, cols, alpha, ws, &out)
	if c := p.params.Cache; c != nil {
		c.record(out.cacheHits, out.cacheMisses)
	}
	out.verifyDur = time.Since(vStart)
	return out
}

// candidateUpperBound evaluates the full Lemma-5 pivot upper-bound product
// of one candidate matrix (no early exit, so candidates are comparable).
// Returns 1 when the source has no pivot embedding (nothing is provable)
// and 0 when a query gene is missing from the matrix (cannot match).
func (p *Processor) candidateUpperBound(q *grn.Graph, qEdges []grn.Edge, src int, bufs *colBufs) float64 {
	m := p.idx.DB().BySource(src)
	if m == nil {
		return 0
	}
	cols := bufs.growCols(q.NumVertices())
	for v := 0; v < q.NumVertices(); v++ {
		c := m.IndexOf(q.Gene(v))
		if c < 0 {
			return 0
		}
		cols[v] = c
	}
	emb := p.idx.Embedding(src)
	if emb == nil || len(qEdges) == 0 {
		return 1
	}
	ub := 1.0
	for _, e := range qEdges {
		ub *= emb.UpperBound(cols[e.S], cols[e.T], p.params.OneSided)
	}
	return ub
}

// verifyExact is the exact-verification tail of verifyCandidate: it
// estimates only the query-mapped edges and returns the answer (nil when
// the candidate fails). Cache hits and misses and draws go into out.
//
// One pass in query order resolves everything that needs no draw: the
// informative check, and the cache probe — an estimate, or a bound that
// already fails γ or the running α product, rejects at once. Under the
// analytic estimator an edge the cache misses is fetched (charged I/O),
// estimated and put in the same pass, which therefore resolves every edge.
// Under Monte Carlo the missed edges are left to drawPending. Either way
// a cached edge reads no pages and draws nothing, and is never re-tested
// by the sampled Lemma 3 bound.
//
// Answer.Prob is the product of the edge estimates in query order, so its
// bits do not depend on the order drawPending verifies in.
func (p *Processor) verifyExact(io pagestore.Toucher, q *grn.Graph, qEdges []grn.Edge, src int,
	m *gene.Matrix, cols []int, alpha float64, ws *workerScratch, out *candOutcome) *Answer {
	gamma, cache := p.params.Gamma, p.params.Cache
	bufs := &ws.bufs
	n := len(qEdges)
	if cap(bufs.edges) < n {
		bufs.edges = make([]grn.Edge, n)
	}
	if cap(bufs.vals) < n {
		bufs.vals = make([]float64, n)
	}
	edges, vals := bufs.edges[:n], bufs.vals[:n]
	pending := bufs.pending[:0]
	prob := 1.0
	for i, e := range qEdges {
		a, b := cols[e.S], cols[e.T]
		if !m.Informative(a) || !m.Informative(b) {
			return nil
		}
		var ent cacheEntry
		cached, boundFails := false, false
		if cache != nil {
			ent, cached = cache.lookup(src, a, b)
			boundFails = cached && ent.bound && (ent.p <= gamma || prob*ent.p <= alpha)
			if cached && !ent.bound || boundFails {
				out.cacheHits++
			} else {
				out.cacheMisses++
			}
		}
		var ep float64
		switch {
		case boundFails:
			return nil
		case cached && !ent.bound:
			ep = ent.p
		case p.params.Analytic:
			var err error
			if bufs.a, err = p.idx.FetchStdColumnTo(io, src, a, bufs.a); err != nil {
				return nil
			}
			if bufs.b, err = p.idx.FetchStdColumnTo(io, src, b, bufs.b); err != nil {
				return nil
			}
			ep = p.analytic.VecProb(bufs.a, bufs.b)
			if cache != nil {
				cache.Put(src, a, b, ep)
			}
		default:
			// Left to draw: its bound, or 1, stands in until then.
			ep = 1
			if cached {
				ep = ent.p
			}
			prob *= ep
			vals[i] = ep
			pending = append(pending, pendingEdge{i: i})
			continue
		}
		if ep <= gamma {
			return nil
		}
		prob *= ep
		if prob <= alpha {
			return nil
		}
		vals[i] = ep
		edges[i] = grn.Edge{S: e.S, T: e.T, P: ep}
	}
	bufs.pending = pending // keep the grown capacity for the next candidate
	if len(pending) > 0 {
		if !p.drawPending(io, qEdges, src, cols, alpha, ws, out) {
			return nil
		}
		prob = 1
		for _, v := range vals {
			prob *= v
		}
	}
	ans := &Answer{Source: src, Prob: prob,
		Edges: make([]grn.Edge, n), Genes: make([]gene.ID, q.NumVertices())}
	copy(ans.Edges, edges)
	copy(ans.Genes, q.Genes())
	return ans
}

// drawPending verifies the edges verifyExact left to draw and reports
// whether every one passes. It fetches each column they need once, then
// verifies them in ascending order of the analytic estimator's
// probability, so the edge likeliest to fail draws first. Each edge draws
// from its own streams, seeded by (Seed, source, lower column, higher
// column) with the vectors in that column order: first the Lemma 3 bound,
// then an estimate that stops drawing once it can no longer pass γ or
// keep the query-order product above α (exact curtailment, DESIGN.md
// §9.1). A curtailed edge therefore never changes a decision, and a
// completed estimate is the full-R estimate bit for bit. Completed
// estimates go into the cache; a curtailed edge leaves the largest
// estimate it could still have reached as a bound.
func (p *Processor) drawPending(io pagestore.Toucher, qEdges []grn.Edge, src int, cols []int,
	alpha float64, ws *workerScratch, out *candOutcome) bool {
	gamma, cache := p.params.Gamma, p.params.Cache
	samples := p.params.Samples
	if samples <= 0 {
		samples = stats.DefaultSamples
	}
	bufs := &ws.bufs
	vcols := bufs.growVCols(len(cols))
	pending := bufs.pending
	for k := range pending {
		e := qEdges[pending[k].i]
		for _, v := range [2]int{e.S, e.T} {
			if len(vcols[v]) == 0 {
				var err error
				if vcols[v], err = p.idx.FetchStdColumnTo(io, src, cols[v], vcols[v]); err != nil {
					return false
				}
			}
		}
		pending[k].key = p.analytic.VecProb(vcols[e.S], vcols[e.T])
	}
	// Insertion sort: a handful of edges, ties kept in query order.
	for k := 1; k < len(pending); k++ {
		for j := k; j > 0 && pending[j].key < pending[j-1].key; j-- {
			pending[j], pending[j-1] = pending[j-1], pending[j]
		}
	}
	vals, edges := bufs.vals[:len(qEdges)], bufs.edges[:len(qEdges)]
	for _, pe := range pending {
		i, e := pe.i, qEdges[pe.i]
		a, b, xa, xb := cols[e.S], cols[e.T], vcols[e.S], vcols[e.T]
		if a > b {
			a, b, xa, xb = b, a, xb, xa
		}
		// The largest hit count that fails: γ, or α on the product of the
		// estimates and bounds known so far (unknown edges count 1). That
		// product is evaluated in query order, like Answer.Prob, and drops
		// by monotone rounding as factors ≤ 1 join it, so the cutoff
		// needs no guard: it fires only when the final product fails too.
		stop := stats.RejectedHits(samples, func(ep float64) bool {
			return ep <= gamma || productWith(vals, i, ep) <= alpha
		})
		if stop >= samples {
			return false
		}
		sc, pr := p.primeScorers(ws, uint64(int64(src)), uint64(a), uint64(b))
		if pr.UpperBound(xa, xb) <= gamma {
			return false // Lemma 3
		}
		hits, drawn := sc.Est.EdgeHits(xa, xb, samples, p.params.OneSided, stop)
		out.draws += drawn
		if drawn < samples {
			if cache != nil {
				cache.PutBound(src, a, b, float64(hits+samples-drawn)/float64(samples))
			}
			return false
		}
		ep := float64(hits) / float64(samples)
		if cache != nil {
			cache.Put(src, a, b, ep)
		}
		if hits <= stop {
			return false
		}
		vals[i] = ep
		edges[i] = grn.Edge{S: e.S, T: e.T, P: ep}
	}
	return true
}

// productWith is the product of vals in order with vals[i] replaced by v.
func productWith(vals []float64, i int, v float64) float64 {
	prob := 1.0
	for j, w := range vals {
		if j == i {
			w = v
		}
		prob *= w
	}
	return prob
}
