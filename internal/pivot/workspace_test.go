package pivot

import (
	"math"
	"testing"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/stats"
	"github.com/imgrn/imgrn/internal/stats/statstest"
	"github.com/imgrn/imgrn/internal/synth"
	"github.com/imgrn/imgrn/internal/vecmath"
)

// permRange returns the smallest and largest dist(x, p^σ) over every
// permutation σ of p.
func permRange(x, p []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	q := append([]float64(nil), p...)
	var rec func(k int)
	rec = func(k int) {
		if k == len(q) {
			d := vecmath.Euclidean(x, q)
			lo, hi = math.Min(lo, d), math.Max(hi, d)
			return
		}
		for i := k; i < len(q); i++ {
			q[k], q[i] = q[i], q[k]
			rec(k + 1)
			q[k], q[i] = q[i], q[k]
		}
	}
	rec(0)
	return lo, hi
}

// matrixWithConstants is a random n×l matrix whose columns listed in
// constant have zero variance.
func matrixWithConstants(t *testing.T, rng *randgen.Rand, n, l int, constant ...int) *gene.Matrix {
	t.Helper()
	m := randomGeneMatrix(t, rng, n, l)
	cols := make([][]float64, n)
	for j := range cols {
		cols[j] = m.Col(j)
	}
	for _, j := range constant {
		for i := range cols[j] {
			cols[j][i] = 3.5
		}
	}
	m, err := gene.NewMatrix(0, m.Genes(), cols)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEmbedYWithinHoeffdingEnvelope: each embedded y_j[r] is the mean of
// S draws of dist(X_j, piv_r^σ), each within [lo, hi], the extreme values
// over all l! permutations. By Hoeffding the mean lies within
// (hi − lo)·sqrt(ln(2/δ)/(2S)) of stats.ExactExpectedPermDistance except
// with probability δ; at δ = 1e-9 per coordinate the shared false-alarm
// budget lets no coordinate of this fixed-seed sweep fall outside. A
// further 1e-12 covers the rounding of a zero-width range. The sweep
// covers l = 3..7, zero-variance columns, a zero-variance pivot, and
// matrices with fewer genes than D, whose pivots repeat. Every x
// coordinate is the direct distance, bit for bit.
func TestEmbedYWithinHoeffdingEnvelope(t *testing.T) {
	const samples, delta = 4096, 1e-9
	rng := randgen.New(90)
	var w Workspace
	outside := statstest.FalseAlarms{Delta: delta}
	for l := 3; l <= 7; l++ {
		for _, c := range []struct {
			name     string
			m        *gene.Matrix
			d        int
			pivotIdx []int // nil: SelectPivots
		}{
			{"random", randomGeneMatrix(t, rng, 9, l), 3, nil},
			{"zero-variance columns", matrixWithConstants(t, rng, 8, l, 2, 5), 2, []int{0, 1}},
			{"zero-variance pivot", matrixWithConstants(t, rng, 6, l, 4), 2, []int{4, 1}},
			{"fewer genes than D", randomGeneMatrix(t, rng, 2, l), 4, nil},
		} {
			w.Reset(c.m)
			piv := c.pivotIdx
			if piv == nil {
				piv = w.SelectPivots(c.d, DefaultSelection, rng)
			}
			emb, err := w.Embed(piv, stats.NewEstimator(uint64(91+l)), samples)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < c.m.NumGenes(); j++ {
				x := c.m.StdCol(j)
				for r, pj := range emb.PivotIdx {
					p := c.m.StdCol(pj)
					if got, want := emb.X[j][r], vecmath.Euclidean(x, p); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s l=%d: x[%d][%d] = %v, direct %v", c.name, l, j, r, got, want)
					}
					lo, hi := permRange(x, p)
					exact := stats.ExactExpectedPermDistance(p, x)
					radius := statstest.HoeffdingRadius(hi-lo, samples, delta)
					if y := emb.Y[j][r]; !outside.Check(math.Abs(y-exact) <= radius+1e-12) {
						t.Logf("%s l=%d: y[%d][%d] = %v, exact %v, envelope ±%.3g", c.name, l, j, r, y, exact, radius)
					}
				}
			}
		}
	}
	if _, checked := outside.Alarms(); checked < 200 {
		t.Fatalf("only %d coordinates checked", checked)
	}
	outside.Verify(t, "y coordinates outside the Hoeffding envelope")
}

// refSelectPivots is the swap search of Figure 3 evaluating every pivot
// set with the direct Cost, as before the column-distance table.
func refSelectPivots(m *gene.Matrix, d int, params SelectionParams, rng *randgen.Rand) []int {
	n := m.NumGenes()
	if n == 0 || d <= 0 {
		return nil
	}
	if n <= d {
		out := make([]int, d)
		for i := range out {
			out[i] = i % n
		}
		return out
	}
	if params.GlobalIter <= 0 {
		params.GlobalIter = 1
	}
	var best []int
	var globalCost float64
	for a := 0; a < params.GlobalIter; a++ {
		piv := rng.SampleWithoutReplacement(n, d)
		inPiv := make(map[int]bool, d)
		for _, p := range piv {
			inPiv[p] = true
		}
		localCost := Cost(m, piv)
		for b := 0; b < params.SwapIter; b++ {
			ri := rng.Intn(d)
			xt := rng.Intn(n)
			for inPiv[xt] {
				xt = rng.Intn(n)
			}
			old := piv[ri]
			piv[ri] = xt
			if c := Cost(m, piv); c < localCost {
				localCost = c
				delete(inPiv, old)
				inPiv[xt] = true
			} else {
				piv[ri] = old
			}
		}
		if a == 0 || localCost < globalCost {
			globalCost = localCost
			best = append(best[:0], piv...)
		}
	}
	return best
}

// TestSelectPivotsTableMatchesDirectCost: over a seeded sweep of
// synthetic databases, the table-driven SelectPivots on one reused
// Workspace chooses the pivots the direct-Cost search chooses, leaves the
// generator where it leaves it, and its Cost — and so a database's
// PivotCostSum — has the direct Cost's bits, as do the x coordinates of
// Embed.
func TestSelectPivotsTableMatchesDirectCost(t *testing.T) {
	var w Workspace
	est := stats.NewEstimator(5)
	for seed := uint64(1); seed <= 6; seed++ {
		ds, err := synth.GenerateDatabase(synth.DBParams{
			N: 24, NMin: 2, NMax: 40, LMin: 3, LMax: 20,
			Dist: synth.Uniform, GenePool: 60, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []int{1, 2, 3, 4} {
			params := DefaultSelection
			if d == 3 {
				params = SelectionParams{GlobalIter: 4, SwapIter: 40}
			}
			var sum, refSum float64
			for _, m := range ds.DB.Matrices() {
				got, want := randgen.New(seed*10+uint64(d)), randgen.New(seed*10+uint64(d))
				w.Reset(m)
				piv := w.SelectPivots(d, params, got)
				refPiv := refSelectPivots(m, d, params, want)
				if len(piv) != len(refPiv) {
					t.Fatalf("seed %d d=%d source %d: pivots %v, direct %v", seed, d, m.Source, piv, refPiv)
				}
				for i := range piv {
					if piv[i] != refPiv[i] {
						t.Fatalf("seed %d d=%d source %d: pivots %v, direct %v", seed, d, m.Source, piv, refPiv)
					}
				}
				if got.Uint64() != want.Uint64() {
					t.Fatalf("seed %d d=%d source %d: generator state differs", seed, d, m.Source)
				}
				c, refC := w.Cost(piv), Cost(m, refPiv)
				if math.Float64bits(c) != math.Float64bits(refC) {
					t.Fatalf("seed %d d=%d source %d: Cost %v, direct %v", seed, d, m.Source, c, refC)
				}
				sum += c
				refSum += refC
				emb, err := w.Embed(piv, est, 8)
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < m.NumGenes(); j++ {
					for r, pj := range piv {
						if want := vecmath.Euclidean(m.StdCol(j), m.StdCol(pj)); math.Float64bits(emb.X[j][r]) != math.Float64bits(want) {
							t.Fatalf("seed %d d=%d source %d: x[%d][%d] = %v, direct %v", seed, d, m.Source, j, r, emb.X[j][r], want)
						}
					}
				}
			}
			if math.Float64bits(sum) != math.Float64bits(refSum) {
				t.Errorf("seed %d d=%d: cost sum %v, direct %v", seed, d, sum, refSum)
			}
		}
	}
}

// TestWorkspaceRelease: a released workspace keeps no reference to its
// matrix, keeps the scratch of a small matrix for the next Reset, and
// gives back all the scratch of a matrix above maxKeptGenes.
func TestWorkspaceRelease(t *testing.T) {
	rng := randgen.New(92)
	var w Workspace
	w.Reset(randomGeneMatrix(t, rng, 30, 5))
	if _, err := w.Embed(w.SelectPivots(2, DefaultSelection, rng), stats.NewEstimator(93), 8); err != nil {
		t.Fatal(err)
	}
	w.Release()
	if w.m != nil {
		t.Error("released workspace still references its matrix")
	}
	for _, c := range w.cols[:cap(w.cols)] {
		if c != nil {
			t.Fatal("released workspace still references a column of its matrix")
		}
	}
	if len(w.bufs) == 0 {
		t.Error("released workspace dropped the table of a small matrix")
	}

	w.Reset(randomGeneMatrix(t, rng, maxKeptGenes+1, 2))
	if _, err := w.Embed([]int{0, 1}, stats.NewEstimator(94), 8); err != nil {
		t.Fatal(err)
	}
	w.Release()
	if cap(w.tab) != 0 || len(w.bufs) != 0 || cap(w.cols) != 0 || cap(w.ys) != 0 {
		t.Error("released workspace kept the scratch of a large matrix")
	}
}
