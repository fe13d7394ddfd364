package grn

import (
	"math"
	"testing"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/stats"
)

// randTestMatrix builds an n-gene matrix of Gaussian columns of length l.
func randTestMatrix(t *testing.T, n, l int, seed uint64) *gene.Matrix {
	t.Helper()
	rng := randgen.New(seed)
	ids := make([]gene.ID, n)
	cols := make([][]float64, n)
	for j := 0; j < n; j++ {
		ids[j] = gene.ID(j)
		cols[j] = make([]float64, l)
		for i := range cols[j] {
			cols[j][i] = rng.Gaussian(0, 1)
		}
	}
	m, err := gene.NewMatrix(0, ids, cols)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestScoreColumnMatchesExact: through the gene.Matrix plumbing, the batch
// column scorer must converge to the exact enumerated probability at small
// l, for both sidedness modes.
func TestScoreColumnMatchesExact(t *testing.T) {
	m := randTestMatrix(t, 6, 7, 21)
	for _, oneSided := range []bool{false, true} {
		sc := NewRandomizedScorer(22, 6000)
		sc.OneSided = oneSided
		tcol := 5
		srcs := []int{0, 1, 2, 3, 4}
		got := make([]float64, len(srcs))
		sc.ScoreColumn(m, tcol, srcs, sc.DrawPerms(m), got)
		for i, s := range srcs {
			var exact float64
			if oneSided {
				exact = stats.ExactEdgeProbability(m.StdCol(s), m.StdCol(tcol))
			} else {
				exact = stats.ExactAbsEdgeProbability(m.StdCol(s), m.StdCol(tcol))
			}
			if math.Abs(got[i]-exact) > 0.05 {
				t.Errorf("oneSided=%v src %d: batch %v, exact %v", oneSided, s, got[i], exact)
			}
		}
	}
}

// TestScoreColumnTableSumsAllocateNothing: once a scorer has scored one
// column of a table-sum shape (l ≤ R), scoring more columns through the
// table, of every partner count up to the widest seen, allocates nothing.
func TestScoreColumnTableSumsAllocateNothing(t *testing.T) {
	m := randTestMatrix(t, 8, 20, 23)
	sc := NewRandomizedScorer(24, 1024)
	perms := sc.DrawPerms(m)
	srcs := []int{0, 1, 2, 3, 4, 5, 6}
	dst := make([]float64, len(srcs))
	sc.ScoreColumn(m, 7, srcs, perms, dst)
	allocs := testing.AllocsPerRun(20, func() {
		for k := 1; k < 8; k++ {
			sc.ScoreColumn(m, k, srcs[:k], perms, dst[:k])
		}
	})
	if allocs != 0 {
		t.Errorf("scoring 7 columns allocated %v times after warm-up", allocs)
	}
}

// TestUpperBoundColumnDominatesExact: the batched Lemma-4 bound must stay
// an upper bound on the exact edge probability (up to Monte Carlo slack on
// the E(Z) estimate), like the scalar Pruner.UpperBound.
func TestUpperBoundColumnDominatesExact(t *testing.T) {
	m := randTestMatrix(t, 6, 7, 23)
	pr := NewPruner(24, 1024)
	tcol := 5
	srcs := []int{0, 1, 2, 3, 4}
	got := make([]float64, len(srcs))
	pr.UpperBoundColumn(m, tcol, srcs, got)
	for i, s := range srcs {
		if got[i] < 0 || got[i] > 1 {
			t.Errorf("src %d: bound %v out of [0,1]", s, got[i])
		}
		exact := stats.ExactAbsEdgeProbability(m.StdCol(s), m.StdCol(tcol))
		if got[i] < exact-0.05 {
			t.Errorf("src %d: bound %v below exact probability %v", s, got[i], exact)
		}
	}
}

// TestInferPrunedBatchNoPrunerMatchesInfer: with pruning off, the batched
// InferPruned consumes the scorer RNG exactly like the batched Infer (one
// permutation table per matrix, all partners scored), so identically
// seeded scorers must produce identical graphs.
func TestInferPrunedBatchNoPrunerMatchesInfer(t *testing.T) {
	m := randTestMatrix(t, 12, 25, 25)
	g1, err := Infer(m, NewRandomizedScorer(26, 64), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g2, st, err := InferPruned(m, NewRandomizedScorer(26, 64), nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != 12*11/2 || st.Estimated != st.Pairs || st.Pruned != 0 {
		t.Errorf("stats accounting off without pruner: %+v", st)
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", g1.NumEdges(), g2.NumEdges())
	}
	for s := 0; s < 12; s++ {
		for u := s + 1; u < 12; u++ {
			p1, ok1 := g1.EdgeProb(s, u)
			p2, ok2 := g2.EdgeProb(s, u)
			if ok1 != ok2 || p1 != p2 {
				t.Errorf("edge (%d,%d): Infer %v,%v vs InferPruned %v,%v", s, u, p1, ok1, p2, ok2)
			}
		}
	}
}

// TestInferPrunedBatchAccounting: the batch path's InferStats must keep the
// scalar path's invariants (Pairs = Pruned + Estimated, Edges matches the
// graph) plus the new kernel clock and per-column BoundCalls semantics.
func TestInferPrunedBatchAccounting(t *testing.T) {
	n := 14
	m := randTestMatrix(t, n, 30, 27)
	sc := NewRandomizedScorer(28, 96)
	pr := NewPruner(29, 16)
	g, st, err := InferPruned(m, sc, pr, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != n*(n-1)/2 {
		t.Errorf("Pairs = %d, want %d", st.Pairs, n*(n-1)/2)
	}
	if st.Pruned+st.Estimated != st.Pairs {
		t.Errorf("Pruned %d + Estimated %d != Pairs %d", st.Pruned, st.Estimated, st.Pairs)
	}
	if st.Edges != g.NumEdges() {
		t.Errorf("Edges = %d, graph has %d", st.Edges, g.NumEdges())
	}
	if st.Kernel <= 0 {
		t.Error("batch path recorded no kernel time")
	}
	// Shared-batch bound accounting: BoundSamples per column with >= 1
	// candidate pair, i.e. columns 1..n-1, not per pair.
	if want := (n - 1) * pr.BoundSamples; st.BoundCalls != want {
		t.Errorf("BoundCalls = %d, want %d (per-column)", st.BoundCalls, want)
	}
}

// TestInferPrunedBatchDeterminism: fixed seeds, identical graphs.
func TestInferPrunedBatchDeterminism(t *testing.T) {
	m := randTestMatrix(t, 10, 20, 31)
	run := func() *Graph {
		g, _, err := InferPruned(m, NewRandomizedScorer(32, 64), NewPruner(33, 16), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g1, g2 := run(), run()
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", g1.NumEdges(), g2.NumEdges())
	}
	for s := 0; s < 10; s++ {
		for u := s + 1; u < 10; u++ {
			p1, _ := g1.EdgeProb(s, u)
			p2, _ := g2.EdgeProb(s, u)
			if p1 != p2 {
				t.Errorf("edge (%d,%d): %v vs %v", s, u, p1, p2)
			}
		}
	}
}

// TestInferPrunedBatchAgreesWithScalarStatistically: the batch and scalar
// paths estimate the same probabilities, so at a generous sample budget
// their inferred edge sets on a well-separated matrix must coincide.
func TestInferPrunedBatchAgreesWithScalarStatistically(t *testing.T) {
	m := testMatrix(t, 60, 34) // 4 genes with strong correlation structure
	batch := NewRandomizedScorer(35, 2000)
	gb, _, err := InferPruned(m, batch, NewPruner(36, 64), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	scalar := NewRandomizedScorer(37, 2000)
	scalar.Batch = false
	gs, _, err := InferPruned(m, scalar, NewPruner(38, 64), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if gb.NumEdges() != gs.NumEdges() {
		t.Fatalf("batch %d edges, scalar %d edges", gb.NumEdges(), gs.NumEdges())
	}
	for s := 0; s < m.NumGenes(); s++ {
		for u := s + 1; u < m.NumGenes(); u++ {
			if gb.HasEdge(s, u) != gs.HasEdge(s, u) {
				t.Errorf("edge (%d,%d): batch %v, scalar %v", s, u, gb.HasEdge(s, u), gs.HasEdge(s, u))
			}
		}
	}
}
