package pivot

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/stats"
	"github.com/imgrn/imgrn/internal/vecmath"
)

func randomGeneMatrix(t *testing.T, rng *randgen.Rand, n, l int) *gene.Matrix {
	t.Helper()
	ids := make([]gene.ID, n)
	cols := make([][]float64, n)
	for j := 0; j < n; j++ {
		ids[j] = gene.ID(j)
		col := make([]float64, l)
		for i := range col {
			col[i] = rng.Gaussian(0, 1)
		}
		cols[j] = col
	}
	m, err := gene.NewMatrix(0, ids, cols)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// bound returns a fresh workspace bound to m.
func bound(m *gene.Matrix) *Workspace {
	var w Workspace
	w.Reset(m)
	return &w
}

func TestEmbedCoordinates(t *testing.T) {
	rng := randgen.New(70)
	m := randomGeneMatrix(t, rng, 8, 6)
	est := stats.NewEstimator(71)
	emb, err := bound(m).Embed([]int{0, 3}, est, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if emb.D != 2 {
		t.Fatalf("D = %d", emb.D)
	}
	for j := 0; j < m.NumGenes(); j++ {
		for r, pj := range emb.PivotIdx {
			wantX := vecmath.Euclidean(m.StdCol(j), m.StdCol(pj))
			if math.Abs(emb.X[j][r]-wantX) > 1e-12 {
				t.Errorf("X[%d][%d] = %v, want %v", j, r, emb.X[j][r], wantX)
			}
			wantY := stats.ExactExpectedPermDistance(m.StdCol(pj), m.StdCol(j))
			if math.Abs(emb.Y[j][r]-wantY) > 0.03 {
				t.Errorf("Y[%d][%d] = %v, exact %v", j, r, emb.Y[j][r], wantY)
			}
		}
	}
}

func TestEmbedPointLayout(t *testing.T) {
	rng := randgen.New(72)
	m := randomGeneMatrix(t, rng, 4, 5)
	est := stats.NewEstimator(73)
	emb, err := bound(m).Embed([]int{1, 2}, est, 64)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 4)
	pt := emb.Point(3, buf)
	if pt[0] != emb.X[3][0] || pt[1] != emb.Y[3][0] || pt[2] != emb.X[3][1] || pt[3] != emb.Y[3][1] {
		t.Errorf("interleaved layout wrong: %v", pt)
	}
}

func TestEmbedValidation(t *testing.T) {
	rng := randgen.New(74)
	m := randomGeneMatrix(t, rng, 3, 4)
	est := stats.NewEstimator(75)
	if _, err := bound(m).Embed(nil, est, 16); err == nil {
		t.Error("no pivots should error")
	}
	if _, err := bound(m).Embed([]int{7}, est, 16); err == nil {
		t.Error("out-of-range pivot should error")
	}
}

// TestUpperBoundSoundness is the key pruning-correctness property: the
// pivot-based upper bound (with near-exact Y coordinates) dominates the
// exact two-sided edge probability for every pair.
func TestUpperBoundSoundness(t *testing.T) {
	rng := randgen.New(76)
	est := stats.NewEstimator(77)
	for trial := 0; trial < 15; trial++ {
		m := randomGeneMatrix(t, rng, 6, 6)
		emb, err := bound(m).Embed([]int{0, 1}, est, 6000)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 6; s++ {
			for u := s + 1; u < 6; u++ {
				exact := stats.ExactAbsEdgeProbability(m.StdCol(s), m.StdCol(u))
				ub := emb.UpperBound(s, u, false)
				if ub < exact-0.05 {
					t.Errorf("trial %d pair (%d,%d): ub %v < exact %v", trial, s, u, ub, exact)
				}
			}
		}
	}
}

func TestUpperBoundSoundnessOneSided(t *testing.T) {
	rng := randgen.New(78)
	est := stats.NewEstimator(79)
	for trial := 0; trial < 15; trial++ {
		m := randomGeneMatrix(t, rng, 6, 6)
		emb, err := bound(m).Embed([]int{0, 1}, est, 6000)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 6; s++ {
			for u := s + 1; u < 6; u++ {
				exact := stats.ExactEdgeProbability(m.StdCol(s), m.StdCol(u))
				ub := emb.UpperBound(s, u, true)
				if ub < exact-0.05 {
					t.Errorf("trial %d pair (%d,%d): ub %v < exact %v", trial, s, u, ub, exact)
				}
			}
		}
	}
}

// TestEffectiveDistanceLBIsLowerBound: the pivot-space bound never exceeds
// the true (two-sided) distance.
func TestEffectiveDistanceLB(t *testing.T) {
	rng := randgen.New(80)
	f := func(seed uint64) bool {
		r := randgen.New(seed ^ rng.Uint64())
		l := 6
		xs := make([]float64, l)
		xt := make([]float64, l)
		p1 := make([]float64, l)
		p2 := make([]float64, l)
		for i := 0; i < l; i++ {
			xs[i] = r.Gaussian(0, 1)
			xt[i] = r.Gaussian(0, 1)
			p1[i] = r.Gaussian(0, 1)
			p2[i] = r.Gaussian(0, 1)
		}
		for _, v := range [][]float64{xs, xt, p1, p2} {
			if !vecmath.Standardize(v) {
				return true
			}
		}
		xsC := []float64{vecmath.Euclidean(xs, p1), vecmath.Euclidean(xs, p2)}
		xtC := []float64{vecmath.Euclidean(xt, p1), vecmath.Euclidean(xt, p2)}
		d := vecmath.Euclidean(xs, xt)
		if lb := EffectiveDistanceLB(xsC, xtC, true); lb > d+1e-9 {
			return false
		}
		dAbs := stats.TwoSidedDistance(d)
		return EffectiveDistanceLB(xsC, xtC, false) <= dAbs+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCostMatchesDefinition(t *testing.T) {
	rng := randgen.New(81)
	m := randomGeneMatrix(t, rng, 10, 8)
	piv := []int{2, 5, 7}
	got := Cost(m, piv)
	// T_i = Σ_s min_{r,w}(d_r + d_w) = Σ_s 2·min_r d_r.
	var want float64
	for s := 0; s < m.NumGenes(); s++ {
		best := math.Inf(1)
		for _, pj := range piv {
			if d := vecmath.Euclidean(m.StdCol(s), m.StdCol(pj)); d < best {
				best = d
			}
		}
		want += 2 * best
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Cost = %v, want %v", got, want)
	}
}

func TestSelectPivotsImprovesOnRandom(t *testing.T) {
	rng := randgen.New(82)
	m := randomGeneMatrix(t, rng, 30, 10)
	selRng := randgen.New(83)
	selected := bound(m).SelectPivots(3, SelectionParams{GlobalIter: 4, SwapIter: 40}, selRng)
	selCost := Cost(m, selected)
	// Average cost of random pivot sets.
	var avg float64
	const trials = 30
	for i := 0; i < trials; i++ {
		avg += Cost(m, selRng.SampleWithoutReplacement(30, 3))
	}
	avg /= trials
	if selCost > avg {
		t.Errorf("selected cost %v worse than random average %v", selCost, avg)
	}
}

func TestSelectPivotsSmallMatrix(t *testing.T) {
	rng := randgen.New(84)
	m := randomGeneMatrix(t, rng, 2, 5)
	piv := bound(m).SelectPivots(4, DefaultSelection, randgen.New(85))
	if len(piv) != 4 {
		t.Fatalf("pivot count = %d, want 4 (padded)", len(piv))
	}
	for _, p := range piv {
		if p < 0 || p >= 2 {
			t.Errorf("pivot %d out of range", p)
		}
	}
}

func TestSelectPivotsDeterministic(t *testing.T) {
	rng := randgen.New(86)
	m := randomGeneMatrix(t, rng, 20, 8)
	a := bound(m).SelectPivots(2, DefaultSelection, randgen.New(9))
	b := bound(m).SelectPivots(2, DefaultSelection, randgen.New(9))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different pivots")
		}
	}
}

func TestSelectPivotsEmpty(t *testing.T) {
	rng := randgen.New(87)
	m := randomGeneMatrix(t, rng, 3, 4)
	if piv := bound(m).SelectPivots(0, DefaultSelection, rng); piv != nil {
		t.Errorf("d=0 should return nil, got %v", piv)
	}
}

func TestPrunable(t *testing.T) {
	rng := randgen.New(88)
	m := randomGeneMatrix(t, rng, 6, 6)
	est := stats.NewEstimator(89)
	emb, err := bound(m).Embed([]int{0}, est, 200)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 6; s++ {
		for u := s + 1; u < 6; u++ {
			want := emb.UpperBound(s, u, false) <= 0.8
			if got := emb.Prunable(s, u, 0.8, false); got != want {
				t.Errorf("Prunable(%d,%d) = %v, ub = %v", s, u, got, emb.UpperBound(s, u, false))
			}
		}
	}
}
