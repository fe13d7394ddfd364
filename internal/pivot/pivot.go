// Package pivot implements the pivot-based matrix embedding of Section 4:
// each gene feature vector X_s of matrix M_i is mapped — via d pivot
// vectors selected from M_i itself — to a 2d-dimensional point
//
//	g_{i,s} = (x_s[1], y_s[1]; …; x_s[d], y_s[d])
//	x_s[r]  = dist(X_s, piv_r)
//	y_s[r]  = E(dist(X_s^R, piv_r))
//
// which embeds matrices of heterogeneous dimensionality l_i into one common
// space. The package also provides the pivot-based probability upper bound
// (the PPR pruning condition of Section 4.2) and the cost-model-driven
// pivot selection algorithm of Figure 3.
package pivot

import (
	"fmt"
	"math"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/stats"
	"github.com/imgrn/imgrn/internal/vecmath"
)

// Embedding holds the pivot embedding of one matrix.
type Embedding struct {
	// D is the number of pivots.
	D int
	// PivotIdx are the column indices of M_i chosen as pivots. Entries may
	// repeat when the matrix has fewer than D columns.
	PivotIdx []int
	// X[j][r] = dist(X_j, piv_r) on standardized vectors.
	X [][]float64
	// Y[j][r] = E(dist(X_j^R, piv_r)), Monte Carlo estimated. The draws
	// are shared across the matrix: Y[j][r] = mean_k dist(X_j, piv_r^{σ_k})
	// over one set of permutations σ_k per pivot (see
	// stats.ExpectedPermDistances), which estimates the same expectation
	// with the same per-column distribution.
	Y [][]float64
}

// Point writes the 2d-dimensional embedded coordinates of column j into
// dst (len >= 2D) in the interleaved (x[1], y[1], …, x[d], y[d]) layout of
// Section 5.1 and returns dst[:2D].
func (e *Embedding) Point(j int, dst []float64) []float64 {
	dst = dst[:2*e.D]
	for r := 0; r < e.D; r++ {
		dst[2*r] = e.X[j][r]
		dst[2*r+1] = e.Y[j][r]
	}
	return dst
}

// Workspace is the reusable scratch of pivot selection and embedding,
// bound to one matrix at a time by Reset. It holds the matrix's
// column-distance table dist(X_s, X_p), one column p at a time allocated
// and filled on first use, which SelectPivots' Cost evaluations, Cost and
// the x coordinates of Embed all read. The table holds only the columns a
// search touches, at most GlobalIter·(d + SwapIter) + d of them, so its
// memory grows with the gene count, not with its square. A Workspace is
// not safe for concurrent use; keep one per goroutine.
type Workspace struct {
	m     *gene.Matrix
	n     int
	tab   [][]float64 // tab[p][s] = dist(X_s, X_p); nil until column p is filled
	bufs  [][]float64 // column buffers; the first used of them back tab
	used  int
	inPiv []bool      // SelectPivots: the current pivot set
	pcols [][]float64 // Cost: the pivots' table columns
	row   []float64   // Cost: one column's distances to the pivots
	cols  [][]float64 // Embed: the standardized columns
	ys    []float64   // Embed: one pivot's y coordinates
}

// The largest scratch Release keeps: a workspace last bound to more genes,
// or holding more table entries, gives all its memory back, so a pool of
// workspaces stays small after one large matrix.
const (
	maxKeptGenes = 1 << 13
	maxKeptTable = 1 << 19 // float64s: 4 MiB
)

// Reset binds w to m and forgets the previous matrix's table, keeping the
// scratch memory.
func (w *Workspace) Reset(m *gene.Matrix) {
	n := m.NumGenes()
	w.m, w.n = m, n
	w.tab = resize(w.tab, n)
	clear(w.tab)
	w.used = 0
}

// Release unbinds w from its matrix, so that a pooled workspace keeps no
// matrix reachable, and drops all scratch above maxKeptGenes or
// maxKeptTable. Reset binds it again.
func (w *Workspace) Release() {
	table := 0
	for _, b := range w.bufs {
		table += cap(b)
	}
	if cap(w.tab) > maxKeptGenes || table > maxKeptTable {
		*w = Workspace{}
		return
	}
	w.m, w.n = nil, 0
	clear(w.cols[:cap(w.cols)])
}

// resize returns buf[:n], reallocating only when the capacity is short.
// Contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// column returns dist(X_s, X_p) for every column s of the bound matrix,
// filling the table column on first use. An entry whose mirror
// dist(X_p, X_s) is already in the table is copied from it:
// vecmath.Euclidean returns the same bits in either argument order, since
// (a−b)² and (b−a)² are equal and the sum runs in index order.
func (w *Workspace) column(p int) []float64 {
	if col := w.tab[p]; col != nil {
		return col
	}
	if w.used == len(w.bufs) {
		w.bufs = append(w.bufs, nil)
	}
	col := resize(w.bufs[w.used], w.n)
	w.bufs[w.used] = col
	w.used++
	xp := w.m.StdCol(p)
	for s := range col {
		if t := w.tab[s]; t != nil {
			col[s] = t[p]
		} else {
			col[s] = vecmath.Euclidean(w.m.StdCol(s), xp)
		}
	}
	w.tab[p] = col
	return col
}

// Embed computes the embedding of the bound matrix over the pivots given
// by column indices pivotIdx. The x coordinates come from the
// column-distance table. For each pivot in turn it draws `samples`
// permutations of the pivot from est (stats.DefaultSamples when <= 0) and
// scores every column against them (stats.ExpectedPermDistances): a
// matrix pays d·samples permutations, not n·d·samples.
func (w *Workspace) Embed(pivotIdx []int, est *stats.Estimator, samples int) (*Embedding, error) {
	d, n := len(pivotIdx), w.n
	if d == 0 {
		return nil, fmt.Errorf("pivot: need at least one pivot")
	}
	for _, pj := range pivotIdx {
		if pj < 0 || pj >= n {
			return nil, fmt.Errorf("pivot: pivot index %d out of range [0,%d)", pj, n)
		}
	}
	emb := &Embedding{
		D:        d,
		PivotIdx: append([]int(nil), pivotIdx...),
		X:        make([][]float64, n),
		Y:        make([][]float64, n),
	}
	coords := make([]float64, 2*n*d) // the X rows, then the Y rows
	for j := 0; j < n; j++ {
		emb.X[j] = coords[j*d : (j+1)*d : (j+1)*d]
		emb.Y[j] = coords[(n+j)*d : (n+j+1)*d : (n+j+1)*d]
	}
	w.cols = resize(w.cols, n)
	for j := range w.cols {
		w.cols[j] = w.m.StdCol(j)
	}
	w.ys = resize(w.ys, n)
	for r, pj := range pivotIdx {
		xcol := w.column(pj)
		est.ExpectedPermDistances(w.ys, w.cols, w.m.StdCol(pj), samples)
		for j := 0; j < n; j++ {
			emb.X[j][r] = xcol[j]
			emb.Y[j][r] = w.ys[j]
		}
	}
	return emb, nil
}

// UpperBound returns the pivot-based upper bound ub_P(e_{s,t}) =
// min_w ub_P(e_{s,t}, piv_w) of Section 4.2, evaluated in both
// randomization directions (X_t^R and X_s^R are exchangeable for a uniform
// permutation) and clamped to [0, 1]:
//
//	C_w        = D_lb − x_s[w]
//	ub(…, w)   = 1                    if C_w ≤ 0      (Case 1)
//	             min(1, y_t[w]/C_w)   otherwise       (Case 2, Markov)
//
// where for the one-sided Eq.-(4) measure D_lb is the triangle lower bound
// max_r |x_s[r] − x_t[r]| on dist(X_s, X_t), and for the (default)
// two-sided absolute measure it is the lower bound on the |cor|-equivalent
// distance min(dist, sqrt(4 − dist²)).
func (e *Embedding) UpperBound(s, t int, oneSided bool) float64 {
	return UpperBoundCoords(e.X[s], e.Y[s], e.X[t], e.Y[t], oneSided)
}

// UpperBoundCoords computes the pivot-based upper bound directly from
// embedded coordinates: xs[r] = dist(X_s, piv_r), ys[r] = E(dist(X_s^R,
// piv_r)), and likewise for t. Both vectors must use the same pivots.
// The index layer applies it to leaf points whose matrices are unknown at
// traversal time; coordinates of points from the same data source always
// share pivots, and candidate pairs are restricted to one source before
// this bound is consulted for pruning decisions.
func UpperBoundCoords(xs, ys, xt, yt []float64, oneSided bool) float64 {
	dlb := EffectiveDistanceLB(xs, xt, oneSided)
	ub := 1.0
	for w := range xs {
		if c := dlb - xs[w]; c > 0 {
			if b := yt[w] / c; b < ub {
				ub = b
			}
		}
		if c := dlb - xt[w]; c > 0 {
			if b := ys[w] / c; b < ub {
				ub = b
			}
		}
	}
	if ub < 0 {
		ub = 0
	}
	return ub
}

// floorMargin is the relative rounding margin carried by the Markov
// denominator bounds of BoundFloor. An x coordinate is a computed distance
// between standardized vectors, which exceeds its exact value by about
// (l+3)·2⁻⁵³ relative for l samples: below 2⁻²⁴ for any l under 2²⁸,
// leaving room for the few further roundings of the proof.
const floorMargin = 0x1p-20

// Bounds on every Markov denominator C_w = D_lb − x[w] (see BoundFloor),
// margin included.
const (
	maxDenomOneSided = 2 * (1 + floorMargin)
	maxDenomTwoSided = math.Sqrt2 * (1 + floorMargin)
)

// BoundFloor returns the smallest value UpperBoundCoords can take on two
// embedded vectors of one matrix whose y coordinates are all at least
// yMin: min(1, yMin/c_max), where c_max bounds every denominator
// C_w = D_lb − x[w] the bound divides by — 2 for the one-sided measure and
// √2 for the two-sided one, each enlarged by floorMargin. A pivot test at
// a γ below the floor cannot prune (DESIGN.md §2.0 finding 2). A yMin
// below 2⁻¹⁰⁰⁰, where the relative-rounding step of the proof could leave
// the normal range, or NaN, certifies nothing and yields 0.
//
// Proof that fl(C_w) ≤ c_max. Every x coordinate is a computed distance
// between vectors of norm at most 1 (standardized, or zero for a constant
// column), so 0 ≤ x ≤ 2(1+κ) with κ ≪ floorMargin; rounding is monotone
// and x[w] ≥ 0, so fl(D_lb − x[w]) ≤ D_lb, and it suffices to bound D_lb.
//
//   - EffectiveDistanceLB, one-sided: D_lb = max_r fl|xs[r] − xt[r]|, and
//     the difference of two numbers in [0, X] rounds to at most X, so
//     D_lb ≤ 2(1+κ).
//   - EffectiveDistanceLB, two-sided: D_lb = min(lbd, √(4 − ubd²)). The
//     coordinates of one matrix are distances to shared pivots, so the
//     triangle inequality gives lbd ≤ dist(X_s, X_t) ≤ ubd up to the
//     rounding of the distances, O(κ). If lbd ≤ √2 the bound holds;
//     otherwise ubd ≥ √2 − O(κ) and √(4 − ubd²) ≤ √2 + O(κ). Either way
//     D_lb ≤ √2(1 + O(κ)).
//   - IndexPrunable's MBR form: its gap bound max_r (Min − Max) is at most
//     the largest coordinate, 2(1+κ), under either measure. Its two-sided
//     min with √(4 − ubd²) is no √2 bound, because two nodes may share no
//     source and then lbd and ubd come from different pivot sets. So the
//     node test takes the one-sided floor, BoundFloor(yMin, true), under
//     both measures.
//
// Given fl(C_w) ≤ c_max and y ≥ yMin, y/C_w ≥ yMin/c_max, and division
// rounds monotonically, so each Case-2 term of UpperBoundCoords is at
// least fl(yMin/c_max); Case-1 terms are 1. IndexPrunable instead tests
// y ≤ fl(γ·C_w): for γ < BoundFloor(yMin, true) the real product is below
// yMin·(1+2⁻⁵³)(1+κ)/(1+floorMargin) ≤ yMin·(1 − 2⁻⁵²), so it rounds to at
// most the float below yMin, and no y ≥ yMin passes the test.
func BoundFloor(yMin float64, oneSided bool) float64 {
	if !(yMin >= 0x1p-1000) {
		return 0
	}
	c := maxDenomTwoSided
	if oneSided {
		c = maxDenomOneSided
	}
	return math.Min(1, yMin/c)
}

// EffectiveDistanceLB returns the pivot-space lower bound on the distance
// that enters the Markov denominator: the triangle lower bound
// max_r |x_s[r] − x_t[r]| for the one-sided measure, or for the two-sided
// measure the lower bound on min(dist, sqrt(4 − dist²)) obtained from the
// triangle lower *and* upper (min_r x_s[r]+x_t[r]) bounds.
func EffectiveDistanceLB(xs, xt []float64, oneSided bool) float64 {
	lbd := 0.0
	for r := range xs {
		if v := abs(xs[r] - xt[r]); v > lbd {
			lbd = v
		}
	}
	if oneSided {
		return lbd
	}
	ubd := math.Inf(1)
	for r := range xs {
		if v := xs[r] + xt[r]; v < ubd {
			ubd = v
		}
	}
	alt2 := 4 - ubd*ubd
	if alt2 < 0 {
		alt2 = 0
	}
	if alt := math.Sqrt(alt2); alt < lbd {
		return alt
	}
	return lbd
}

// Prunable reports whether edge {s, t} can be pruned at inference threshold
// gamma, i.e. whether the pivot-based upper bound is ≤ γ (the PPR condition
// of Figure 2).
func (e *Embedding) Prunable(s, t int, gamma float64, oneSided bool) bool {
	return e.UpperBound(s, t, oneSided) <= gamma
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// VectorCost is the per-vector term of the Figure-3 cost function: the
// contribution of one gene vector with pivot distances dists[r] =
// dist(X_s, piv_r),
//
//	min_r min_w ( d_r + d_w )  =  2 · min_r d_r
//
// (the double minimum collapses because the two pivot choices are
// independent). It is the single scoring rule shared by pivot selection
// (Cost), the ablation benchmarks, and the query planner's §4 cost-model
// prior: lower cost means a larger expected pivot-based pruning region.
func VectorCost(dists []float64) float64 {
	if len(dists) == 0 {
		return 0
	}
	min := dists[0]
	for _, d := range dists[1:] {
		if d < min {
			min = d
		}
	}
	return 2 * min
}

// Cost evaluates the Figure-3 cost function of a pivot set over matrix m:
//
//	T_i = Σ_s VectorCost(dists_s) = Σ_s min_r min_w ( dist(X_s, piv_r) + dist(X_s, piv_w) )
//
// Lower cost means a larger expected pivot-based pruning region.
func Cost(m *gene.Matrix, pivotIdx []int) float64 {
	pivs := make([][]float64, len(pivotIdx))
	for r, pj := range pivotIdx {
		pivs[r] = m.StdCol(pj)
	}
	var total float64
	dists := make([]float64, len(pivs))
	for s := 0; s < m.NumGenes(); s++ {
		xs := m.StdCol(s)
		for r, pv := range pivs {
			dists[r] = vecmath.Euclidean(xs, pv)
		}
		total += VectorCost(dists)
	}
	return total
}

// Cost is the package-level Cost of the bound matrix, read from the
// column-distance table: the same distances, scored by VectorCost and
// summed in the same order, so the same bits.
func (w *Workspace) Cost(pivotIdx []int) float64 {
	w.pcols = w.pcols[:0]
	for _, pj := range pivotIdx {
		w.pcols = append(w.pcols, w.column(pj))
	}
	w.row = resize(w.row, len(pivotIdx))
	var total float64
	for s := 0; s < w.n; s++ {
		for r, c := range w.pcols {
			w.row[r] = c[s]
		}
		total += VectorCost(w.row)
	}
	return total
}

// SelectionParams tunes the randomized swap search of Figure 3.
type SelectionParams struct {
	GlobalIter int // restarts with fresh random pivots (line 2)
	SwapIter   int // random swap attempts per restart (line 5)
}

// DefaultSelection mirrors a practical configuration of the paper's
// algorithm: a handful of restarts, each with enough swaps to converge on
// the small d values of Table 2 (d ≤ 4).
var DefaultSelection = SelectionParams{GlobalIter: 3, SwapIter: 24}

// SelectPivots chooses d pivot columns of the bound matrix minimizing Cost
// via the randomized swap search of Figure 3. When the matrix has fewer
// than d columns the full column set is returned padded by repetition.
// The rng makes the search deterministic per seed. Its Cost evaluations
// read the column-distance table, so a search of GlobalIter·(1 + SwapIter)
// evaluations computes each column distance at most once.
func (w *Workspace) SelectPivots(d int, params SelectionParams, rng *randgen.Rand) []int {
	n := w.n
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
	w.inPiv = resize(w.inPiv, n)
	var best []int
	globalCost := float64(0)
	haveBest := false
	for a := 0; a < params.GlobalIter; a++ {
		piv := rng.SampleWithoutReplacement(n, d)
		inPiv := w.inPiv
		clear(inPiv)
		for _, p := range piv {
			inPiv[p] = true
		}
		localCost := w.Cost(piv)
		for b := 0; b < params.SwapIter; b++ {
			ri := rng.Intn(d)
			// Draw a non-pivot column.
			xt := rng.Intn(n)
			for inPiv[xt] {
				xt = rng.Intn(n)
			}
			old := piv[ri]
			piv[ri] = xt
			if c := w.Cost(piv); c < localCost {
				localCost = c
				inPiv[old] = false
				inPiv[xt] = true
			} else {
				piv[ri] = old
			}
		}
		if !haveBest || localCost < globalCost {
			globalCost = localCost
			best = append(best[:0], piv...)
			haveBest = true
		}
	}
	return best
}
