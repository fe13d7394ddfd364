package index

import (
	"math"
	"testing"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/pivot"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/rstar"
	"github.com/imgrn/imgrn/internal/synth"
)

// The floor certificate (pivot.BoundFloor, DESIGN.md §2.0 finding 2) lets a
// query skip a pivot test at a γ (or α) below the floor. The tests below
// hold every skipped test to "could not have pruned": whenever the
// certificate holds, IndexPrunable is false, PointUpperBound is > γ and
// the Lemma-5 product is > α. Their stress cases sit on the rounding edges
// the margin of BoundFloor covers, so they fail if its c_max or its margin
// is shrunk.

var (
	floorGammas = []float64{0, 0.05, 0.2, 0.4, 0.5, 0.6, 0.66, 0.7, 0.8, 0.9, 0.93, 0.95, 0.99}
	floorAlphas = []float64{0, 0.001, 0.01, 0.1, 0.3, 0.5, 0.8, 0.95}
)

// withEdge returns grid plus the largest threshold at which the
// certificate on floor holds and the smallest at which it does not.
func withEdge(grid []float64, floor float64) []float64 {
	return append(append([]float64(nil), grid...), math.Nextafter(floor, 0), floor)
}

// floorPow is the certificate's lower bound on a Lemma-5 product of k
// factors, each at least floor: floor multiplied k times from 1, rounded
// like the product itself.
func floorPow(floor float64, k int) float64 {
	prod := 1.0
	for i := 0; i < k; i++ {
		prod *= floor
	}
	return prod
}

// certCounts tallies the thresholds a test checked with the certificate
// holding and not holding, so a test can prove its grid straddles the floor.
type certCounts struct{ held, open int }

// checkPoint asserts the point-pair certificate for one bound ub at every
// γ of the grid around floor.
func (c *certCounts) checkPoint(t *testing.T, label string, ub, floor float64) {
	t.Helper()
	for _, gamma := range withEdge(floorGammas, floor) {
		if floor <= gamma {
			c.open++
			continue
		}
		c.held++
		if ub <= gamma {
			t.Fatalf("%s: floor %v > γ %v, yet the pivot bound %v prunes", label, floor, gamma, ub)
		}
	}
}

// checkProduct asserts the Lemma-5 certificate for one product of k
// bounds at every α of the grid around floor^k.
func (c *certCounts) checkProduct(t *testing.T, label string, prod, floor float64, k int) {
	t.Helper()
	fk := floorPow(floor, k)
	for _, alpha := range withEdge(floorAlphas, fk) {
		if fk <= alpha {
			c.open++
			continue
		}
		c.held++
		if prod <= alpha {
			t.Fatalf("%s: floor^%d %v > α %v, yet the Lemma-5 product %v prunes", label, k, fk, alpha, prod)
		}
	}
}

// point interleaves per-pivot coordinates into a leaf-point layout.
func point(xs, ys []float64) []float64 {
	p := make([]float64, 2*len(xs)+1)
	for r := range xs {
		p[2*r], p[2*r+1] = xs[r], ys[r]
	}
	return p
}

// TestBoundFloorCertifiesEmbeddedPairs: on real embeddings (random
// databases, pivot counts and sample lengths), every same-source point
// pair's bound is at least the floor of the index's YMin — and of the
// smallest y of the pair itself — and every Lemma-5 product over random
// edge sets clears α whenever floor^k does, under both measures.
func TestBoundFloorCertifiesEmbeddedPairs(t *testing.T) {
	var points, products certCounts
	for seed := uint64(0); seed < 6; seed++ {
		rng := randgen.New(0xf100 + seed)
		ds, err := synth.GenerateDatabase(synth.DBParams{
			N: 20, NMin: 5, NMax: 12, LMin: 6, LMax: 6 + rng.Intn(30),
			Dist: synth.Distribution(rng.Intn(2)), GenePool: 30, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		d := 1 + rng.Intn(3)
		idx, err := Build(ds.DB, Options{D: d, Samples: 16, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		yMin := idx.YMin()
		for _, m := range ds.DB.Matrices() {
			emb := idx.Embedding(m.Source)
			n := m.NumGenes()
			pts := make([][]float64, n)
			for j := range pts {
				pts[j] = point(emb.X[j], emb.Y[j])
			}
			for _, oneSided := range []bool{false, true} {
				floor := pivot.BoundFloor(yMin, oneSided)
				for s := 0; s < n; s++ {
					for u := 0; u < n; u++ {
						if s == u {
							continue
						}
						ub := PointUpperBound(pts[s], pts[u], d, oneSided)
						pairMin := math.Min(minOf(emb.Y[s]), minOf(emb.Y[u]))
						if local := pivot.BoundFloor(pairMin, oneSided); ub < local {
							t.Fatalf("seed %d source %d (%d,%d) oneSided=%v: bound %v below the pair's floor %v",
								seed, m.Source, s, u, oneSided, ub, local)
						}
						points.checkPoint(t, "embedded pair", ub, floor)
					}
				}
				for trial := 0; trial < 10; trial++ {
					k := 1 + rng.Intn(12)
					prod := 1.0
					for e := 0; e < k; e++ {
						s, u := rng.Intn(n), rng.Intn(n-1)
						if u >= s {
							u++
						}
						prod *= emb.UpperBound(s, u, oneSided)
					}
					products.checkProduct(t, "embedded product", prod, floor, k)
				}
			}
		}
	}
	if points.held == 0 || points.open == 0 || products.held == 0 || products.open == 0 {
		t.Fatalf("grids do not straddle the floor: points %+v, products %+v", points, products)
	}
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}

// rho is the largest relative excess of a computed distance the stress
// cases apply: the rounding of distances over vectors of about 2²⁸ samples.
const rho = 0x1p-24

// stressX are x coordinates on the rounding edges: 0, √2 ± ulp, 2 ± ulp
// and 2 enlarged by 1 ulp, 2⁻⁴⁰ and rho.
var stressX = []float64{
	0, math.Nextafter(math.Sqrt2, 0), math.Sqrt2, math.Nextafter(math.Sqrt2, 2),
	math.Nextafter(2, 0), 2, math.Nextafter(2, 3), 2 * (1 + 0x1p-40), 2 * (1 + rho),
}

// TestBoundFloorCertifiesStressedPointPairs puts point pairs on the edges
// of the two denominator bounds: one-sided, a pair at distance x from each
// other along one pivot (x up to 2(1+rho)); two-sided, the pivot and a
// vector √2(1+ε) from it whose second coordinate puts the coordinate-sum
// bound at √2(1−ε) — a triangle off by the rounding of the distances, for
// ε from one ulp to rho. Each bound, and a product of k copies, must
// survive every threshold the certificate clears.
func TestBoundFloorCertifiesStressedPointPairs(t *testing.T) {
	type stressPair struct {
		ps, pt   []float64
		d        int
		oneSided bool
	}
	var points, products certCounts
	for _, y := range []float64{0.9, 1.32, math.Sqrt2} {
		var cases []stressPair
		for _, x := range stressX {
			cases = append(cases, stressPair{point([]float64{x}, []float64{y}), point([]float64{0}, []float64{y}), 1, true})
		}
		for _, eps := range []float64{0, 0x1p-52, 0x1p-40, rho} {
			hi, lo := math.Sqrt2*(1+eps), math.Sqrt2*(1-eps)
			cases = append(cases, stressPair{point([]float64{hi, 0}, []float64{y, y}), point([]float64{0, lo}, []float64{y, y}), 2, false})
		}
		for i, c := range cases {
			floor := pivot.BoundFloor(y, c.oneSided)
			ub := PointUpperBound(c.ps, c.pt, c.d, c.oneSided)
			if ub < floor {
				t.Fatalf("stressed pair %d (y=%v oneSided=%v): bound %v below the floor %v", i, y, c.oneSided, ub, floor)
			}
			points.checkPoint(t, "stressed pair", ub, floor)
			for k := 1; k <= 12; k++ {
				products.checkProduct(t, "stressed product", floorPow(ub, k), floor, k)
			}
		}
	}
	if points.held == 0 || points.open == 0 || products.held == 0 || products.open == 0 {
		t.Fatalf("grids do not straddle the floor: points %+v, products %+v", points, products)
	}
}

// TestBoundFloorCertifiesIndexPrunable: Lemma 6's MBR form never prunes at
// a γ below the one-sided floor of the y floor, under either measure, on
// random node MBRs with arbitrary coordinates — two nodes need not share a
// source, so their pivot coordinates need not be consistent — x drawn in
// [0, 2] or from the stress edges and y at or above the floor. Two fixed
// pairs pin the edges: c = 2(1+rho) on one pivot (margin), and a
// two-sided pair whose MBR bound divides by 2, not √2 (constant).
func TestBoundFloorCertifiesIndexPrunable(t *testing.T) {
	var nodes certCounts
	pruned := 0
	check := func(label string, ea, eb rstar.Rect, d int, yMin float64) {
		t.Helper()
		floor := pivot.BoundFloor(yMin, true)
		for _, oneSided := range []bool{false, true} {
			for _, gamma := range withEdge(floorGammas, floor) {
				prunable := IndexPrunable(ea, eb, d, gamma, oneSided)
				if floor <= gamma {
					nodes.open++
					if prunable {
						pruned++
					}
					continue
				}
				nodes.held++
				if prunable {
					t.Fatalf("%s (oneSided=%v): floor %v > γ %v, yet Lemma 6 prunes %v × %v",
						label, oneSided, floor, gamma, ea, eb)
				}
			}
		}
	}
	rect := func(xs [][2]float64, ys [][2]float64) rstar.Rect {
		r := rstar.Rect{Min: make([]float64, 2*len(xs)+1), Max: make([]float64, 2*len(xs)+1)}
		for i := range xs {
			r.Min[2*i], r.Max[2*i] = xs[i][0], xs[i][1]
			r.Min[2*i+1], r.Max[2*i+1] = ys[i][0], ys[i][1]
		}
		return r
	}
	for _, yMin := range []float64{0.9, 1.32, math.Sqrt2} {
		at := [2]float64{yMin, yMin}
		edge := 2 * (1 + rho)
		check("one pivot at 2(1+rho)", rect([][2]float64{{0, 0}}, [][2]float64{at}),
			rect([][2]float64{{edge, edge}}, [][2]float64{at}), 1, yMin)
		ea := rect([][2]float64{{0, 0}, {0, 0}}, [][2]float64{at, at})
		eb := rect([][2]float64{{2, 2}, {0, 0}}, [][2]float64{at, at})
		check("two-sided gap 2", ea, eb, 2, yMin)
		// The two-sided point floor is no node certificate: here Lemma 6
		// prunes just below it.
		if gamma := math.Nextafter(pivot.BoundFloor(yMin, false), 0); !IndexPrunable(ea, eb, 2, gamma, false) {
			t.Fatalf("y %v: the two-sided gap-2 pair is not prunable at γ %v", yMin, gamma)
		}
	}

	rng := randgen.New(0xf200)
	coord := func() float64 {
		if rng.Float64() < 0.3 {
			return stressX[rng.Intn(len(stressX))]
		}
		return rng.UniformIn(0, 2)
	}
	for trial := 0; trial < 3000; trial++ {
		d := 1 + rng.Intn(3)
		yMin := rng.UniformIn(0.3, 1.45)
		var r [2]rstar.Rect
		for k := range r {
			xs, ys := make([][2]float64, d), make([][2]float64, d)
			for i := range xs {
				lo, hi := coord(), coord()
				if lo > hi {
					lo, hi = hi, lo
				}
				xs[i] = [2]float64{lo, hi}
				yHi := yMin
				if rng.Float64() < 0.5 {
					yHi = rng.UniformIn(yMin, 1.5)
				}
				ys[i] = [2]float64{yMin, yHi}
			}
			r[k] = rect(xs, ys)
		}
		check("random MBR pair", r[0], r[1], d, yMin)
	}
	if nodes.held == 0 || nodes.open == 0 || pruned == 0 {
		t.Fatalf("grid does not straddle the floor or Lemma 6 never fires: %+v, %d pruned", nodes, pruned)
	}
}

// TestBoundFloorYMinThroughUpdates: YMin is the smallest y coordinate of
// a fresh build, and stays at or below every y in the index while
// matrices are added and removed online.
func TestBoundFloorYMinThroughUpdates(t *testing.T) {
	ds := smallDataset(t, 30, 0xf300)
	all := ds.DB.Matrices()
	base := gene.NewDatabase()
	for _, m := range all[:15] {
		if err := base.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := Build(base, Options{D: 2, Samples: 16, Seed: 0xf300, MaxFill: 6})
	if err != nil {
		t.Fatal(err)
	}
	smallest := func() float64 {
		m := math.Inf(1)
		for _, mt := range idx.DB().Matrices() {
			for _, row := range idx.Embedding(mt.Source).Y {
				m = math.Min(m, minOf(row))
			}
		}
		return m
	}
	if got, want := idx.YMin(), smallest(); got != want {
		t.Fatalf("fresh build: YMin %v, smallest y %v", got, want)
	}
	for i, m := range all[15:] {
		if err := idx.AddMatrix(m); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if err := idx.RemoveMatrix(all[i].Source); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := idx.YMin(), smallest(); got > want {
			t.Fatalf("after update %d: YMin %v above the smallest y %v", i, got, want)
		}
	}
}
