// Package stats implements the statistical machinery of the IM-GRN paper:
// Monte Carlo estimation of edge existence probabilities over randomized
// (permuted) feature vectors (Section 3.1), the (ε, δ) sample-size bound of
// Lemma 2, exact enumeration over all l! permutations for validation,
// expected randomized distances, the Markov probability upper bound of
// Lemma 4, and ROC/AUC evaluation used in Section 6.2.
package stats

import (
	"fmt"
	"math"
	"sort"

	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/vecmath"
)

// SampleSize returns the number of Monte Carlo samples S required by
// Lemma 2 so that the estimated probability ρ̂ is an ε-approximation of the
// true ρ with confidence 1−δ:
//
//	S ≥ (3/ε²) · ln(2/δ).
//
// It panics outside the lemma's domain and when the bound exceeds
// MaxSamples; use SampleSizeErr where the parameters arrive from untrusted
// input (e.g. an HTTP request).
func SampleSize(eps, delta float64) int {
	n, err := SampleSizeErr(eps, delta)
	if err != nil {
		panic(err.Error())
	}
	return n
}

// SampleSizeErr is SampleSize with the domain violation reported as an
// error instead of a panic, so query paths can turn a bad requested
// (ε, δ) into a validation failure. An accuracy so tight that the bound
// exceeds MaxSamples (or overflows: ε = 1e-9 asks for 1.1e19 samples) is
// such a failure too — never a silently different sample count.
func SampleSizeErr(eps, delta float64) (int, error) {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("stats: sample size needs eps > 0 and 0 < delta < 1 (got eps=%v, delta=%v)", eps, delta)
	}
	r := math.Ceil(3 / (eps * eps) * math.Log(2/delta))
	if !(r <= MaxSamples) { // also catches +Inf and NaN
		return 0, fmt.Errorf("stats: eps=%v, delta=%v needs %.3g Monte Carlo samples, more than the maximum %d", eps, delta, r, MaxSamples)
	}
	return int(r), nil
}

// MaxSamples is the largest Monte Carlo sample count R one estimate may
// use, whether R is the Lemma-2 bound of a requested (ε, δ) or given
// explicitly. It bounds what a single request can cost: time is R·l per
// edge, and the batched kernel materializes R·l floats per target column
// (PermBatch.Fill) — 160 MiB at the cap for l = 20. 2²⁰ still admits
// ε ≈ 0.0033 at δ = 0.05, an order of magnitude tighter than the paper's
// experiments use.
const MaxSamples = 1 << 20

// CheckSamples reports an explicitly requested sample count above
// MaxSamples as an error. Zero and negative counts select DefaultSamples
// and pass.
func CheckSamples(samples int) error {
	if samples > MaxSamples {
		return fmt.Errorf("stats: %d Monte Carlo samples requested, more than the maximum %d", samples, MaxSamples)
	}
	return nil
}

// DefaultSamples is the Monte Carlo sample count used when callers do not
// specify one. It corresponds to SampleSize(0.25, 0.05) ≈ 177, rounded up
// to a friendlier figure; estimates at this size resolve the threshold
// comparisons of the paper's parameter grid (γ, α ∈ {0.2 … 0.9}).
const DefaultSamples = 192

// Estimator performs Monte Carlo estimation with a private deterministic
// generator and reusable scratch space. It is not safe for concurrent use;
// derive one per goroutine with Split.
type Estimator struct {
	rng *randgen.Rand
	ar  arena
}

// arena is the estimator's reusable scratch space, one slot per call
// site. Each estimation entry point owns a distinct slice so that
// interleaved calls on the same Estimator can never alias each other's
// in-flight data (EdgeProbability and ExpectedPermDistance formerly
// shared a single slice, so a caller holding one routine's permutation
// buffer across a call to the other would see it silently clobbered).
type arena struct {
	edgePerm  []float64 // EdgeProbability / AbsEdgeProbability permutation block
	distPerm  []float64 // ExpectedPermDistance permutation block
	batchMat  []float64 // EdgeProbabilityBatch permutation matrix
	batchDots []float64 // EdgeProbabilityBatch inner products
}

// grow returns (*buf)[:n], reallocating the backing array only when the
// capacity is insufficient. Contents are unspecified.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// NewEstimator returns an Estimator seeded deterministically.
func NewEstimator(seed uint64) *Estimator {
	return &Estimator{rng: randgen.New(seed)}
}

// Split derives an independent estimator for use on another goroutine.
func (e *Estimator) Split() *Estimator {
	return &Estimator{rng: e.rng.Split()}
}

// Reseed resets the estimator's generator in place to the state a fresh
// NewEstimator(seed) would hold, keeping the scratch arena warm. Every
// estimation entry point fills its scratch before reading it, so a reseeded
// estimator is observationally identical to a new one — the mechanism that
// lets refinement reuse one estimator across per-edge streams without
// reallocating.
func (e *Estimator) Reseed(seed uint64) {
	e.rng.Reseed(seed)
}

// permBlock is the number of permutations the estimators draw back to back
// before testing them. One squared distance is a chain of l dependent
// additions; four independent chains advanced together keep the adder
// busy, and four accumulators, their differences and the loop state still
// fit the sixteen floating-point registers of amd64 — eight would spill.
const permBlock = 4

// sqDistBlock draws the next min(permBlock, remaining) uniform permutations
// of src from the estimator's stream into the arena slot buf and returns
// their squared distances to fixed, in draw order, in a prefix of out.
//
// This is the draw kernel every scalar estimator runs on, and it is
// draw-identical to the plain loop "PermuteInto, then SquaredEuclidean"
// once per sample: the permutations consume the stream one after the
// other, and every distance is summed by one accumulator in ascending
// index order. Only independent samples are interleaved, so no
// floating-point result moves.
func (e *Estimator) sqDistBlock(out *[permBlock]float64, buf *[]float64, fixed, src []float64, remaining int) []float64 {
	n, l := min(permBlock, remaining), len(src)
	perm := grow(buf, permBlock*l)
	for k := 0; k < n; k++ {
		e.rng.PermuteInto(perm[k*l:(k+1)*l], src)
	}
	if n == permBlock {
		out[0], out[1], out[2], out[3] = vecmath.SquaredEuclidean4(fixed, perm[:l], perm[l:2*l], perm[2*l:3*l], perm[3*l:])
	} else {
		for k := 0; k < n; k++ {
			out[k] = vecmath.SquaredEuclidean(fixed, perm[k*l:(k+1)*l])
		}
	}
	return out[:n]
}

// EdgeHits is the draw loop of both edge estimators, with exact
// curtailment (DESIGN.md §9.1). It draws up to samples uniform
// permutations Xt^R of xt, in blocks of permBlock, and counts the hits of
// the one-sided test of Eq. (4), dist(Xs, Xt^R) > dist(Xs, Xt), or unless
// oneSided of the two-sided test of Definition 2.
//
// Before each block it stops once hits + (samples − drawn) ≤ stop: the
// full-sample hit count can then be stop at most, which a caller rejecting
// every estimate k/samples with k ≤ stop already knows to reject (see
// RejectedHits). stop < 0 never stops. The draws are always a prefix of
// the full-sample draws, so drawn == samples means hits/samples is the
// fixed-sample estimate bit for bit. samples must be positive.
func (e *Estimator) EdgeHits(xs, xt []float64, samples int, oneSided bool, stop int) (hits, drawn int) {
	d := vecmath.SquaredEuclidean(xs, xt)
	c := abs(d - 2)
	var d2 [permBlock]float64
	for drawn < samples && hits+samples-drawn > stop {
		block := e.sqDistBlock(&d2, &e.ar.edgePerm, xs, xt, samples-drawn)
		if oneSided {
			for _, dr := range block {
				if dr > d {
					hits++
				}
			}
		} else {
			for _, dr := range block {
				if abs(dr-2) < c {
					hits++
				}
			}
		}
		drawn += len(block)
	}
	return hits, drawn
}

// RejectedHits returns the largest hit count k in [0, samples] whose
// estimate float64(k)/float64(samples) satisfies reject, or −1 when none
// does: the stop argument of EdgeHits for a caller that rejects exactly
// the estimates reject holds for. reject must be monotone — holding at p,
// it holds at every smaller estimate — as a threshold test on the estimate,
// or on a product with it, is.
func RejectedHits(samples int, reject func(p float64) bool) int {
	return sort.Search(samples+1, func(k int) bool { return !reject(float64(k) / float64(samples)) }) - 1
}

// EdgeProbability estimates the edge existence probability of Eq. (1),
// reduced per Lemma 1 to the Euclidean form of Eq. (4):
//
//	e.p = Pr{ dist(Xs, Xt^R) > dist(Xs, Xt) }
//
// where Xt^R is a uniform random permutation of Xt. xs and xt must be
// standardized vectors of equal length; samples Monte Carlo draws are used
// (DefaultSamples if samples <= 0). It is EdgeHits with no stop rule.
func (e *Estimator) EdgeProbability(xs, xt []float64, samples int) float64 {
	if samples <= 0 {
		samples = DefaultSamples
	}
	hits, _ := e.EdgeHits(xs, xt, samples, true, -1)
	return float64(hits) / float64(samples)
}

// AbsEdgeProbability estimates the two-sided (absolute-correlation) form
// of Definition 2:
//
//	e.p = Pr{ |cor(Xs, Xt)| > |cor(Xs, Xt^R)| }
//	    = Pr{ |dist²(Xs, Xt^R) − 2| < |dist²(Xs, Xt) − 2| }
//
// for standardized vectors (|cor| = |1 − dist²/2|). The one-sided
// EdgeProbability is the literal Eq. (4) reduction; it coincides with this
// form whenever cor(Xs,Xt) + cor(Xs,Xt^R) ≥ 0 (the regime Lemma 1's proof
// assumes) and diverges for strong negative correlations, which the
// absolute form credits as interactions. It is EdgeHits with no stop rule.
func (e *Estimator) AbsEdgeProbability(xs, xt []float64, samples int) float64 {
	if samples <= 0 {
		samples = DefaultSamples
	}
	hits, _ := e.EdgeHits(xs, xt, samples, false, -1)
	return float64(hits) / float64(samples)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// ExpectedPermDistance estimates E[ dist(permuted^R, fixed) ], the expected
// Euclidean distance between a uniform random permutation of `permuted` and
// the fixed vector. This single estimator serves both E(Z) of Lemma 4
// (fixed = Xs, permuted = Xt) and the embedding coordinates
// y_s[w] = E(dist(Xs^R, piv_w)) of Section 4.2 (fixed = piv_w,
// permuted = Xs); the two forms agree in distribution because the inverse of
// a uniform permutation is uniform.
func (e *Estimator) ExpectedPermDistance(fixed, permuted []float64, samples int) float64 {
	if samples <= 0 {
		samples = DefaultSamples
	}
	var sum float64
	var d2 [permBlock]float64
	for done := 0; done < samples; done += permBlock {
		for _, dr := range e.sqDistBlock(&d2, &e.ar.distPerm, fixed, permuted, samples-done) {
			sum += math.Sqrt(dr)
		}
	}
	return sum / float64(samples)
}

// MarkovUpperBound returns the Lemma-4 upper bound on an edge existence
// probability: ub_P = E(Z)/dist, clamped to [0, 1]. A zero distance means
// the vectors coincide, for which the bound degenerates to 1 (no pruning).
func MarkovUpperBound(expectedZ, dist float64) float64 {
	if dist <= 0 {
		return 1
	}
	ub := expectedZ / dist
	if ub > 1 {
		return 1
	}
	if ub < 0 {
		return 0
	}
	return ub
}

// MaxExactLen is the largest vector length for which the Exact* functions
// will enumerate all l! permutations (9! = 362,880).
const MaxExactLen = 9

// ExactEdgeProbability computes Pr{dist(xs, xt^R) > dist(xs, xt)} exactly by
// enumerating every permutation of xt. It panics if len(xt) > MaxExactLen.
// Intended for tests that validate the Monte Carlo estimator.
func ExactEdgeProbability(xs, xt []float64) float64 {
	if len(xt) > MaxExactLen {
		panic("stats: ExactEdgeProbability input too long")
	}
	d := vecmath.SquaredEuclidean(xs, xt)
	hits, total := 0, 0
	forEachPermutation(vecmath.Clone(xt), func(p []float64) {
		total++
		if vecmath.SquaredEuclidean(xs, p) > d {
			hits++
		}
	})
	return float64(hits) / float64(total)
}

// ExactExpectedPermDistance computes E[dist(fixed, permuted^R)] exactly by
// enumerating every permutation of permuted. It panics if the input is
// longer than MaxExactLen.
func ExactExpectedPermDistance(fixed, permuted []float64) float64 {
	if len(permuted) > MaxExactLen {
		panic("stats: ExactExpectedPermDistance input too long")
	}
	var sum float64
	total := 0
	forEachPermutation(vecmath.Clone(permuted), func(p []float64) {
		total++
		sum += vecmath.Euclidean(fixed, p)
	})
	return sum / float64(total)
}

// ExactAbsEdgeProbability computes the two-sided edge probability exactly
// by enumerating every permutation of xt. It panics if len(xt) >
// MaxExactLen. Intended for tests validating AbsEdgeProbability.
func ExactAbsEdgeProbability(xs, xt []float64) float64 {
	if len(xt) > MaxExactLen {
		panic("stats: ExactAbsEdgeProbability input too long")
	}
	c := abs(vecmath.SquaredEuclidean(xs, xt) - 2)
	hits, total := 0, 0
	forEachPermutation(vecmath.Clone(xt), func(p []float64) {
		total++
		if abs(vecmath.SquaredEuclidean(xs, p)-2) < c {
			hits++
		}
	})
	return float64(hits) / float64(total)
}

// TwoSidedDistance maps the pairwise distance of two standardized vectors
// to the distance corresponding to |cor|: d_abs = min(d, sqrt(4 − d²)).
// Upper bounds derived for the one-sided probability at distance d remain
// valid for the two-sided probability at distance TwoSidedDistance(d),
// because Pr{|cor_R| < |cor|} ≤ Pr{cor_R < |cor|} = Pr{dist_R > d_abs}.
func TwoSidedDistance(d float64) float64 {
	alt := 4 - d*d
	if alt < 0 {
		alt = 0
	}
	alt = math.Sqrt(alt)
	if alt < d {
		return alt
	}
	return d
}

// forEachPermutation invokes fn with every permutation of x (Heap's
// algorithm). fn must not retain or modify its argument.
func forEachPermutation(x []float64, fn func([]float64)) {
	n := len(x)
	c := make([]int, n)
	fn(x)
	i := 0
	for i < n {
		if c[i] < i {
			if i%2 == 0 {
				x[0], x[i] = x[i], x[0]
			} else {
				x[c[i]], x[i] = x[i], x[c[i]]
			}
			fn(x)
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
}
