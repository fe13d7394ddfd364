package grn

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/stats"
	"github.com/imgrn/imgrn/internal/vecmath"
)

func TestInferThresholdSemantics(t *testing.T) {
	m := testMatrix(t, 40, 11)
	g, err := Infer(m, AnalyticScorer{}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute scores and check edge membership matches "> gamma".
	an := AnalyticScorer{}
	for s := 0; s < m.NumGenes(); s++ {
		for u := s + 1; u < m.NumGenes(); u++ {
			p := an.Score(m, s, u)
			if (p > 0.5) != g.HasEdge(s, u) {
				t.Errorf("edge (%d,%d) membership mismatch: score %v", s, u, p)
			}
			if ep, ok := g.EdgeProb(s, u); ok && ep != p {
				t.Errorf("edge (%d,%d) prob %v != score %v", s, u, ep, p)
			}
		}
	}
}

// cancellingScorer scores like AnalyticScorer and cancels its context at
// the after-th Score call.
type cancellingScorer struct {
	AnalyticScorer
	calls, after int
	cancel       context.CancelFunc
}

func (c *cancellingScorer) Score(m *gene.Matrix, s, t int) float64 {
	if c.calls++; c.calls == c.after {
		c.cancel()
	}
	return c.AnalyticScorer.Score(m, s, t)
}

// TestInferContextStopsBetweenRows: a context cancelled while a wide
// matrix is scored stops inference at the next row with the context's
// error, after scoring only part of the matrix; a context cancelled before
// the call scores nothing on either kernel.
func TestInferContextStopsBetweenRows(t *testing.T) {
	rng := randgen.New(13)
	ids := make([]gene.ID, 200)
	cols := make([][]float64, len(ids))
	for j := range cols {
		ids[j] = gene.ID(j)
		cols[j] = []float64{rng.Gaussian(0, 1), rng.Gaussian(0, 1), rng.Gaussian(0, 1)}
	}
	m, err := gene.NewMatrix(0, ids, cols)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sc := &cancellingScorer{after: 500, cancel: cancel}
	g, err := InferContext(ctx, m, sc, 0.5)
	n := m.NumGenes()
	if !errors.Is(err, context.Canceled) || g != nil {
		t.Fatalf("cancelled inference returned %v, %v", g, err)
	}
	if sc.calls < sc.after || sc.calls >= sc.after+n || sc.calls >= n*(n-1)/2 {
		t.Errorf("scored %d of %d pairs after a cancel at call %d: not stopped within the row", sc.calls, n*(n-1)/2, sc.after)
	}
	rs := NewRandomizedScorer(13, 64)
	rs.Batch = true
	for _, sc := range []Scorer{AnalyticScorer{}, rs} {
		if g, err := InferContext(ctx, m, sc, 0.5); !errors.Is(err, context.Canceled) || g != nil {
			t.Errorf("%s under a cancelled context returned %v, %v", sc.Name(), g, err)
		}
	}
}

func TestInferGammaMonotonicity(t *testing.T) {
	m := testMatrix(t, 40, 12)
	prev := -1
	for _, gamma := range []float64{0.1, 0.5, 0.9, 0.99} {
		g, err := Infer(m, AnalyticScorer{}, gamma)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && g.NumEdges() > prev {
			t.Errorf("edge count increased when gamma grew: %d > %d", g.NumEdges(), prev)
		}
		prev = g.NumEdges()
	}
}

func TestPairScores(t *testing.T) {
	m := testMatrix(t, 30, 13)
	ps, err := PairScores(m, CorrelationScorer{})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Rows != 4 || ps.Cols != 4 {
		t.Fatalf("shape %dx%d", ps.Rows, ps.Cols)
	}
	for s := 0; s < 4; s++ {
		for u := 0; u < 4; u++ {
			if ps.At(s, u) != ps.At(u, s) {
				t.Error("pair scores not symmetric")
			}
		}
	}
	if ps.At(0, 1) < 0.99 {
		t.Errorf("scaled pair score = %v", ps.At(0, 1))
	}
}

// TestPrunerSoundness: the Lemma-3/4 upper bound (computed with a large
// bound-sample budget) must dominate the exact two-sided edge probability.
func TestPrunerSoundness(t *testing.T) {
	rng := randgen.New(14)
	pr := NewPruner(15, 2048)
	f := func(seed uint64) bool {
		r := randgen.New(seed ^ rng.Uint64())
		xs := make([]float64, 6)
		xt := make([]float64, 6)
		for i := range xs {
			xs[i] = r.Gaussian(0, 1)
			xt[i] = r.Gaussian(0, 1)
		}
		if !vecmath.Standardize(xs) || !vecmath.Standardize(xt) {
			return true
		}
		exact := stats.ExactAbsEdgeProbability(xs, xt)
		// Allow slack for the Monte Carlo E(Z) estimate.
		return pr.UpperBound(xs, xt) >= exact-0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPrunerOneSidedSoundness(t *testing.T) {
	rng := randgen.New(16)
	pr := NewPruner(17, 2048)
	pr.OneSided = true
	f := func(seed uint64) bool {
		r := randgen.New(seed ^ rng.Uint64())
		xs := make([]float64, 6)
		xt := make([]float64, 6)
		for i := range xs {
			xs[i] = r.Gaussian(0, 1)
			xt[i] = r.Gaussian(0, 1)
		}
		if !vecmath.Standardize(xs) || !vecmath.Standardize(xt) {
			return true
		}
		exact := stats.ExactEdgeProbability(xs, xt)
		return pr.UpperBound(xs, xt) >= exact-0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestInferPrunedFindsStrongEdges: pruning must never lose an edge whose
// probability is decisively above gamma.
func TestInferPrunedFindsStrongEdges(t *testing.T) {
	m := testMatrix(t, 40, 18)
	sc := NewRandomizedScorer(19, 256)
	pr := NewPruner(20, 32)
	g, st, err := InferPruned(m, sc, pr, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// col0–col1 (perfect correlation) and col0–col2 (perfect
	// anti-correlation, two-sided) must be present.
	if !g.HasEdge(0, 1) {
		t.Error("pruned inference lost the strongly correlated edge")
	}
	if !g.HasEdge(0, 2) {
		t.Error("pruned inference lost the strongly anti-correlated edge")
	}
	if st.Pairs != 6 {
		t.Errorf("pair count = %d, want 6", st.Pairs)
	}
	if st.Pruned+st.Estimated != st.Pairs {
		t.Errorf("stats inconsistent: %+v", st)
	}
}

func TestInferPrunedNilPruner(t *testing.T) {
	m := testMatrix(t, 20, 21)
	sc := NewRandomizedScorer(22, 128)
	g, st, err := InferPruned(m, sc, nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pruned != 0 || st.Estimated != st.Pairs {
		t.Errorf("nil pruner should estimate everything: %+v", st)
	}
	if !g.HasEdge(0, 1) {
		t.Error("strong edge missing")
	}
}

func TestInferPrunedSkipsUninformative(t *testing.T) {
	m, err := gene.NewMatrix(0, []gene.ID{0, 1, 2},
		[][]float64{{1, 1, 1, 1}, {1, 2, 3, 4}, {2, 4, 6, 8}})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewRandomizedScorer(23, 64)
	g, st, err := InferPruned(m, sc, nil, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != 1 {
		t.Errorf("pairs = %d, want 1 (constant column excluded)", st.Pairs)
	}
	if g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Error("edges to uninformative column must not exist")
	}
}

func TestGraphExistenceUpperBound(t *testing.T) {
	if got := GraphExistenceUpperBound([]float64{0.5, 0.5, 0.8}); got != 0.2 {
		t.Errorf("product = %v, want 0.2", got)
	}
	if got := GraphExistenceUpperBound(nil); got != 1 {
		t.Errorf("empty product = %v, want 1", got)
	}
}

func TestPruneByGraphExistence(t *testing.T) {
	if !PruneByGraphExistence(0.3, 0.3) {
		t.Error("ub == alpha should prune (strict > required)")
	}
	if PruneByGraphExistence(0.31, 0.3) {
		t.Error("ub > alpha should not prune")
	}
}
