package core

import (
	"context"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/pivot"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/rstar"
	"github.com/imgrn/imgrn/internal/synth"
)

// joinEmit is one emit call of the leaf join: a same-source point pair
// and whether the pivot bound pruned it.
type joinEmit struct {
	candidatePair
	pruned bool
}

// The reference the leaf join replaced, kept here as the oracle: the
// nested-loop scan of lines 16–21 of Figure 4, every entry of ea against
// every entry of eb, decoding gene and source from the entries themselves.
// It returns every same-source pair it checks, in scan order.
func nestedLoopChecks(ea, eb *rstar.Node, gs gene.ID, neighbors map[gene.ID]bool,
	pt index.PivotTest) []joinEmit {
	var out []joinEmit
	for i := 0; i < ea.NumEntries(); i++ {
		ia := ea.Item(i)
		if gene.ID(int32(ia.Point[len(ia.Point)-1])) != gs {
			continue
		}
		srcA, colA := index.UnpackRef(ia.Ref)
		for j := 0; j < eb.NumEntries(); j++ {
			ib := eb.Item(j)
			if !neighbors[gene.ID(int32(ib.Point[len(ib.Point)-1]))] {
				continue
			}
			srcB, colB := index.UnpackRef(ib.Ref)
			if srcA != srcB {
				continue // line 19: data source IDs must agree
			}
			pruned := !pt.Disabled && index.PointUpperBound(ia.Point, ib.Point, pt.D, pt.OneSided) <= pt.Gamma
			out = append(out, joinEmit{candidatePair{source: srcA, sCol: colA, tCol: colB}, pruned})
		}
	}
	return out
}

// nestedLoopLeafScan is the nested loop's surviving pairs and its checked
// and pruned counts.
func nestedLoopLeafScan(ea, eb *rstar.Node, gs gene.ID, neighbors map[gene.ID]bool,
	pt index.PivotTest) (out []candidatePair, checked, pruned int) {
	for _, e := range nestedLoopChecks(ea, eb, gs, neighbors, pt) {
		checked++
		if e.pruned {
			pruned++
			continue
		}
		out = append(out, e.candidatePair)
	}
	return out, checked, pruned
}

// perNeighborOrder is the emission sequence of the join that ran once per
// neighbor gene: neighbors ascending, and within one neighbor its pairs by
// ascending source (a source occurs once per gene run).
func perNeighborOrder(ea, eb *rstar.Node, gs gene.ID, neighbors []gene.ID, pt index.PivotTest) []joinEmit {
	var out []joinEmit
	for _, tg := range neighbors {
		one := nestedLoopChecks(ea, eb, gs, map[gene.ID]bool{tg: true}, pt)
		sort.Slice(one, func(i, j int) bool { return one[i].source < one[j].source })
		out = append(out, one...)
	}
	return out
}

func sortPairs(ps []candidatePair) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.source != b.source {
			return a.source < b.source
		}
		if a.sCol != b.sCol {
			return a.sCol < b.sCol
		}
		return a.tCol < b.tCol
	})
}

func samePairMultiset(a, b []candidatePair) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]candidatePair(nil), a...), append([]candidatePair(nil), b...)
	sortPairs(a)
	sortPairs(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomLeaves bulk-loads random (gene, source)-unique points into a tree
// of small nodes and returns its leaves. Genes come from a tiny pool that
// includes a negative label and 2³¹−1, sources repeat across genes, and the
// natural STR layout mixes several genes into one leaf.
func randomLeaves(t *testing.T, rng *randgen.Rand, d int) []*rstar.Node {
	t.Helper()
	genePool := []gene.ID{-11, 0, 3, 4, 9, 40, math.MaxInt32}
	sources := []int{-2, 0, 1, 5, 7, 8, 13, 21, 34, 1 << 20}
	var items []rstar.Item
	for _, g := range genePool {
		for _, s := range sources {
			if rng.Float64() < 0.35 {
				continue
			}
			pt := make([]float64, 2*d+1)
			for k := 0; k < 2*d; k++ {
				pt[k] = rng.UniformIn(0, 1.6)
			}
			pt[2*d] = float64(g)
			items = append(items, rstar.Item{Point: pt, Ref: index.PackRef(s, rng.Intn(50))})
		}
	}
	tree, err := rstar.NewTree(rstar.Config{Dim: 2*d + 1, MaxFill: 4 + rng.Intn(12)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	var leaves []*rstar.Node
	tree.Walk(func(n *rstar.Node) bool {
		if n.IsLeaf() {
			leaves = append(leaves, n)
		}
		return true
	})
	return leaves
}

// TestLeafJoinMatchesNestedLoop is the leaf-level differential: on random
// leaf pairs (including a leaf paired with itself) the one-pass join over
// the full neighbor list must emit the nested loop's same-source pairs,
// pruned flags included, in the exact sequence of the join that ran once
// per neighbor gene — neighbors ascending, sources ascending within one —
// with pivot pruning on and off and under both sides.
func TestLeafJoinMatchesNestedLoop(t *testing.T) {
	matches, prunedTotal := 0, 0
	for seed := uint64(0); seed < 40; seed++ {
		rng := randgen.New(500 + seed)
		d := 1 + rng.Intn(3)
		leaves := randomLeaves(t, rng, d)
		tables := make([]*index.LeafTable, len(leaves))
		for i, n := range leaves {
			tables[i] = index.NewLeafTable(n)
		}
		genePool := []gene.ID{-11, 0, 3, 4, 9, 40, math.MaxInt32, 77 /* absent */}
		for trial := 0; trial < 30; trial++ {
			a, b := rng.Intn(len(leaves)), rng.Intn(len(leaves))
			if trial%5 == 0 {
				b = a
			}
			gs := genePool[rng.Intn(len(genePool))]
			var neighbors []gene.ID
			for _, g := range genePool {
				if g != gs && rng.Float64() < 0.5 {
					neighbors = append(neighbors, g)
				}
			}
			slices.Sort(neighbors)
			pt := index.PivotTest{D: d, Gamma: rng.UniformIn(0.2, 0.9),
				OneSided: trial%2 == 0, Disabled: trial%3 == 0}
			want := perNeighborOrder(leaves[a], leaves[b], gs, neighbors, pt)

			var got []joinEmit
			index.JoinLeaves(tables[a], tables[b], gs, neighbors, pt,
				func(source, sCol, tCol int, p bool) {
					got = append(got, joinEmit{candidatePair{source: source, sCol: sCol, tCol: tCol}, p})
				})
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d trial %d (gs %d, neighbors %v, %+v): join emitted %v; per-neighbor order %v",
					seed, trial, gs, neighbors, pt, got, want)
			}
			matches += len(want)
			for _, e := range want {
				if e.pruned {
					prunedTotal++
				}
			}
		}
	}
	if matches < 200 || prunedTotal == 0 || prunedTotal == matches {
		t.Fatalf("%d same-source pairs, %d pruned: the fixture does not exercise the join and the pivot bound", matches, prunedTotal)
	}
}

// refDescent is the descent-level oracle: a plain recursive expansion of
// the root pair under the same admission tests (gene range, signatures,
// Lemma 6) with the nested-loop scan at the leaves. The visited, pruned and
// checked sets do not depend on visiting order, so no priority queue is
// needed to predict the counters.
type refDescent struct {
	idx       *index.Index
	p         Params
	pt        index.PivotTest
	ts        *travState
	neighbors map[gene.ID]bool
	st        Stats
	pairs     []candidatePair
}

func (r *refDescent) visit(ea, eb *rstar.Node) {
	r.st.NodePairsVisited++
	if ea.IsLeaf() {
		out, checked, pruned := nestedLoopLeafScan(ea, eb, r.ts.gsGene, r.neighbors, r.pt)
		r.pairs = append(r.pairs, out...)
		r.st.PointPairsChecked += checked
		r.st.PointPairsPruned += pruned
		return
	}
	geneDim := 2 * r.pt.D
	for i := 0; i < ea.NumEntries(); i++ {
		ca := ea.Child(i)
		fa, da := r.idx.NodeSignature(ca)
		if (!r.p.DisableGeneRange && !r.ts.sideContainsS(ca.MBR(), geneDim)) ||
			(!r.p.DisableSignatures && !r.ts.qVfS.Intersects(fa)) {
			r.st.NodePairsPruned += eb.NumEntries()
			continue
		}
		for j := 0; j < eb.NumEntries(); j++ {
			cb := eb.Child(j)
			fb, db := r.idx.NodeSignature(cb)
			switch {
			case !r.p.DisableGeneRange && !r.ts.anyNeighborIn(cb.MBR(), geneDim),
				!r.p.DisableSignatures && (!r.ts.qVfT.Intersects(fb) || !r.ts.qVdS.IntersectsAll(da, r.ts.qVdT, db)),
				!r.p.DisableIndexPruning && index.IndexPrunable(ca.MBR(), cb.MBR(), r.pt.D, r.pt.Gamma, r.pt.OneSided):
				r.st.NodePairsPruned++
			default:
				r.visit(ca, cb)
			}
		}
	}
}

func referenceTraverse(p *Processor, q *grn.Graph) ([]candidatePair, Stats) {
	r := &refDescent{idx: p.idx, p: p.params, pt: p.params.pivotTest(p.idx.D()),
		ts: buildTravState(p, q), neighbors: map[gene.ID]bool{}}
	for _, g := range r.ts.neighbors {
		r.neighbors[g] = true
	}
	root := p.idx.Tree().Root()
	if p.params.DisableSignatures || rootAdmissibleFor(p.idx, root, r.ts) {
		r.visit(root, root)
	}
	return r.pairs, r.st
}

func sameTraversalCounters(a, b Stats) bool {
	return a.NodePairsVisited == b.NodePairsVisited && a.NodePairsPruned == b.NodePairsPruned &&
		a.PointPairsChecked == b.PointPairsChecked && a.PointPairsPruned == b.PointPairsPruned
}

// checkDescentAgainstReference runs the descent for one query graph under
// params and compares it with the reference, whose point-pair counters it
// returns.
func checkDescentAgainstReference(t testing.TB, idx *index.Index, params Params, q *grn.Graph) (checked, pruned int) {
	p, err := NewProcessor(idx, params)
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt := referenceTraverse(p, q)

	ec := p.newExec(context.Background())
	defer ec.Close()
	var st Stats
	got, err := p.traverse(ec, buildTravState(p, q), &st)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTraversalCounters(st, wantSt) || !samePairMultiset(got, want) {
		t.Errorf("descent (%+v): %d pairs, counters %+v; reference %d pairs, counters %+v",
			params, len(got), st, len(want), wantSt)
	}
	return wantSt.PointPairsChecked, wantSt.PointPairsPruned
}

func ablationParams(mask int, gamma float64, oneSided bool) Params {
	return Params{Gamma: gamma, Alpha: 0.2, Seed: 7, Analytic: true, OneSided: oneSided,
		DisablePivotPruning: mask&1 != 0, DisableGeneRange: mask&2 != 0,
		DisableSignatures: mask&4 != 0, DisableIndexPruning: mask&8 != 0}
}

// TestDescentMatchesReferenceUnderAblations is the descent-level
// differential: for every combination of the four ablation switches, under
// both measures and over a γ grid on both sides of the index's floors
// (pivot.BoundFloor), the descent must produce the reference's
// candidate-pair multiset and its four traversal counters. The reference
// evaluates every test, so where the floor certificate skips Lemma 6 or
// the leaf pivot bound, it is the oracle that the skipped test could not
// have pruned.
func TestDescentMatchesReferenceUnderAblations(t *testing.T) {
	gammas := []float64{0.2, 0.3, 0.45, 0.6, 0.7, 0.8, 0.9, 0.95}
	checked, pointPruned := 0, 0
	// Certificate outcomes seen: [node test, point test][skipped?].
	var seen [2][2]int
	for seed := uint64(0); seed < 3; seed++ {
		ds, idx := buildFixture(t, 600+seed)
		rng := randgen.New(610 + seed)
		for qi := 0; qi < 3; qi++ {
			mq, _, err := ds.ExtractQuery(rng, 4)
			if err != nil {
				t.Fatal(err)
			}
			q, err := grn.Infer(mq, grn.AnalyticScorer{}, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if q.NumEdges() == 0 {
				continue
			}
			oneSided := qi%2 == 1
			// The grid plus each floor and the γ just below it.
			grid := slices.Clone(gammas)
			for _, f := range []float64{pivot.BoundFloor(idx.YMin(), true), pivot.BoundFloor(idx.YMin(), oneSided)} {
				grid = append(grid, math.Nextafter(f, 0), f)
			}
			for _, gamma := range grid {
				if pivot.BoundFloor(idx.YMin(), true) > gamma {
					seen[0][1]++
				} else {
					seen[0][0]++
				}
				if pivot.BoundFloor(idx.YMin(), oneSided) > gamma {
					seen[1][1]++
				} else {
					seen[1][0]++
				}
				for mask := 0; mask < 16; mask++ {
					c, pruned := checkDescentAgainstReference(t, idx, ablationParams(mask, gamma, oneSided), q)
					checked += c
					pointPruned += pruned
				}
			}
		}
	}
	if checked == 0 || pointPruned == 0 {
		t.Fatalf("%d point pairs checked, %d pruned: the fixture does not reach the leaf join and its pivot bound",
			checked, pointPruned)
	}
	if seen[0][0] == 0 || seen[0][1] == 0 || seen[1][0] == 0 || seen[1][1] == 0 {
		t.Fatalf("the γ grid does not straddle the floors: [node, point][evaluated, skipped] = %v", seen)
	}
}

// TestDescentMatchesReferenceBesideWriters repeats the descent-level
// differential from several reader goroutines under a read lock while a
// writer adds and removes matrices under the write lock, so the join reads
// leaf tables the dirty-path refresh has rebuilt — the configuration the
// race detector has to see clean.
func TestDescentMatchesReferenceBesideWriters(t *testing.T) {
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: 60, NMin: 8, NMax: 14, LMin: 10, LMax: 16,
		Dist: synth.Uniform, GenePool: 30, Seed: 620,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := ds.DB.Matrices()
	base := gene.NewDatabase()
	for _, m := range all[:40] {
		if err := base.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := index.Build(base, index.Options{D: 2, Samples: 16, Seed: 620, MaxFill: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := randgen.New(621)
	var graphs []*grn.Graph
	for len(graphs) < 4 {
		mq, _, err := ds.ExtractQuery(rng, 4)
		if err != nil {
			t.Fatal(err)
		}
		if q, err := grn.Infer(mq, grn.AnalyticScorer{}, 0.3); err == nil && q.NumEdges() > 0 {
			graphs = append(graphs, q)
		}
	}

	var mu sync.RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.RLock()
				checkDescentAgainstReference(errorOnly{t}, idx, ablationParams((n+r)%16, 0.3, false), graphs[(n+r)%len(graphs)])
				mu.RUnlock()
			}
		}(r)
	}
	for round := 0; round < 3; round++ {
		for _, m := range all[40:] {
			mu.Lock()
			err := idx.AddMatrix(m)
			mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range all[40:] {
			mu.Lock()
			err := idx.RemoveMatrix(m.Source)
			mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// errorOnly lets helper code shared with single-goroutine tests run on
// reader goroutines, where FailNow is not allowed: Fatal degrades to Error.
type errorOnly struct{ *testing.T }

func (e errorOnly) Fatal(args ...any) { e.T.Error(args...) }

// refHeap is the queue the level buckets replaced, kept as the oracle: a
// slice-backed binary min-heap ordered by (key, insertion sequence), the
// order container/heap gave the descent before it.
type refHeap struct {
	items []refHeapItem
	seq   int
}

type refHeapItem struct {
	key, seq int
	val      nodePair
}

func (h *refHeap) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	return a.key < b.key || (a.key == b.key && a.seq < b.seq)
}

func (h *refHeap) push(key int, v nodePair) {
	h.items = append(h.items, refHeapItem{key: key, seq: h.seq, val: v})
	h.seq++
	for i := len(h.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *refHeap) pop() (key int, v nodePair) {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && h.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && h.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		h.items[i], h.items[least] = h.items[least], h.items[i]
		i = least
	}
	return top.key, top.val
}

// TestLevelQueueMatchesBinaryHeap pins the level buckets' pop order to the
// (key, seq) binary heap they replaced — ascending key, insertion order
// within a key — on random push/pop interleavings, including the descent's
// own shape (pop a key, push at the key below). NodePairsVisited and the
// page-touch order rest on that order. Between runs the queue is reset,
// sometimes with pairs still queued (a cancelled descent), and its pooled
// buckets must then hold no node reference.
func TestLevelQueueMatchesBinaryHeap(t *testing.T) {
	rng := randgen.New(630)
	var q levelQueue
	nodes := make([]rstar.Node, 400) // the values pushed: distinct node identities
	for round := 0; round < 60; round++ {
		var ref refHeap
		descent := round%3 == 0
		id := 0
		push := func(k int) {
			v := nodePair{a: &nodes[id%len(nodes)], b: &nodes[(id*7)%len(nodes)]}
			q.push(k, v)
			ref.push(k, v)
			id++
		}
		if descent {
			push(3)
		}
		for op := 0; op < 300; op++ {
			if len(ref.items) > 0 && (descent || rng.Float64() < 0.4) {
				key, v := q.pop()
				wkey, wv := ref.pop()
				if key != wkey || v != wv {
					t.Fatalf("round %d op %d: popped (%d, %p), want (%d, %p)", round, op, key, v.a, wkey, wv.a)
				}
				if descent && key > 0 {
					for c := rng.Intn(4); c > 0; c-- {
						push(key - 1)
					}
				}
				continue
			}
			if !descent {
				push(rng.Intn(5))
			}
		}
		if q.len() != len(ref.items) {
			t.Fatalf("round %d: queue holds %d pairs, want %d", round, q.len(), len(ref.items))
		}
		q.reset()
		if q.len() != 0 {
			t.Fatalf("round %d: %d pairs after reset", round, q.len())
		}
		for k, b := range q.buckets {
			for _, v := range b.items[:cap(b.items)] {
				if v != (nodePair{}) {
					t.Fatalf("round %d: bucket %d pins a node after reset", round, k)
				}
			}
		}
	}
}
