// Batched Monte Carlo inference kernel (DESIGN.md §9).
//
// The scalar estimators above pay, per candidate pair (s, t), R fresh
// Fisher–Yates permutations of Xt plus R O(l) squared-distance passes. The
// batched kernel restructures that work around one query matrix:
//
//  1. One permutation table per matrix: R index permutations of [0, l)
//     are drawn once (PermTable) and shared read-only by every target
//     column, so a matrix pays R shuffles, not R per column. A column's
//     R×l row-major batch gathers Xt through the table (PermBatch.Gather).
//     Each pair's estimate still has the distribution of R uniform
//     permutations; estimates of different pairs share their draws and so
//     are correlated, and a per-edge (ε, δ) guarantee needs no
//     independence between edges.
//  2. Dot-product hit tests: permutations preserve the norm, so
//     dist²(Xs, Xt^π) = |Xs|² + |Xt|² − 2·⟨Xs, Xt^π⟩ with constant norms,
//     and each hit test reduces to comparing an inner product against a
//     per-pair precomputed threshold — half the arithmetic of a distance
//     pass.
//  3. Blocked kernels: the R inner products of a block of source columns
//     are computed by vecmath.MatMulRowsInto, which streams the
//     permutation matrix once per four sources.
//
// Determinism contract: the batch path consumes the estimator RNG in a
// different order than the scalar path (R permutations per matrix, not R
// per pair), so the two paths give different — but individually
// deterministic and statistically equivalent — fixed-seed estimates. The
// scalar path remains the reference implementation.

package stats

import (
	"math"

	"github.com/imgrn/imgrn/internal/vecmath"
)

// PermTable is R uniform random permutations of the index range [0, l),
// stored row-major: the permutations one query matrix's target columns
// share. Draw it once per matrix, then Gather each column's batch through
// it. A drawn table is only read, so any number of goroutines may gather
// through it at once. Indices are int32, so a table takes half the bytes
// of one R×l batch it fills.
type PermTable struct {
	l, samples int
	idx        []int32 // samples×l: row r is the permutation π_r
}

// Draw replaces the table with samples fresh uniform permutations of
// [0, l) from e's stream (DefaultSamples if samples <= 0). Each row is a
// Fisher–Yates shuffle of the identity, so it consumes the stream exactly
// as one PermuteInto of a length-l vector does, and gathering that vector
// through row r gives the vector the r-th PermuteInto call would write.
func (t *PermTable) Draw(e *Estimator, l, samples int) {
	if samples <= 0 {
		samples = DefaultSamples
	}
	t.l, t.samples = l, samples
	if cap(t.idx) < samples*l {
		t.idx = make([]int32, samples*l)
	}
	t.idx = t.idx[:samples*l]
	for r := 0; r < samples; r++ {
		e.rng.IndexPermInto(t.idx[r*l : (r+1)*l])
	}
}

// Row returns permutation r as a slice aliasing the table storage.
// Intended for tests checking the gathered batch against the scalar
// distance comparisons over the very same permutations.
func (t *PermTable) Row(r int) []int32 { return t.idx[r*t.l : (r+1)*t.l] }

// PermBatch is a shared batch of random permutations of one target vector
// Xt, materialized as an R×l row-major matrix. Gather it through the
// matrix's PermTable (or Fill it from an Estimator's stream), then score
// any number of source vectors against it. A PermBatch owns reusable
// scratch and may be refilled for successive target columns; it is not
// safe for concurrent use.
type PermBatch struct {
	xt      []float64 // target vector (retained, not copied)
	tNorm2  float64   // |Xt|²
	l       int
	samples int
	mat     []float64 // samples×l: row r = Xt^{π_r}
	dots    []float64 // blocked inner-product scratch
}

// batchSrcBlock bounds how many source columns one kernel invocation
// scores at a time, keeping the inner-product scratch (batchSrcBlock ×
// samples floats) cache-sized regardless of how many sources the caller
// passes.
const batchSrcBlock = 32

// Fill draws samples fresh uniform permutations of xt from e's stream and
// materializes them into the batch, replacing any previous contents. The
// RNG cost equals samples scalar PermuteInto calls; every source scored
// against the batch shares it. samples <= 0 selects DefaultSamples.
func (b *PermBatch) Fill(e *Estimator, xt []float64, samples int) {
	if samples <= 0 {
		samples = DefaultSamples
	}
	l := len(xt)
	b.xt = xt
	b.tNorm2 = vecmath.Dot(xt, xt)
	b.l = l
	b.samples = samples
	b.mat = growSlice(b.mat, samples*l)
	for r := 0; r < samples; r++ {
		e.rng.PermuteInto(b.mat[r*l:(r+1)*l], xt)
	}
}

// Gather materializes the batch of xt through the permutations of t,
// replacing any previous contents: row r is Xt^{π_r}, element i being
// xt[π_r(i)]. It draws nothing. xt must have the table's length l.
func (b *PermBatch) Gather(t *PermTable, xt []float64) {
	l := len(xt)
	if l != t.l {
		panic("stats: PermBatch.Gather length mismatch")
	}
	b.xt = xt
	b.tNorm2 = vecmath.Dot(xt, xt)
	b.l = l
	b.samples = t.samples
	mat := growSlice(b.mat, len(t.idx))
	b.mat = mat
	for k, i := range t.idx[:len(mat)] {
		mat[k] = xt[i]
	}
}

// growSlice is grow for slices owned by value types (no pointer needed).
func growSlice(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Samples returns the number of permutations in the batch.
func (b *PermBatch) Samples() int { return b.samples }

// Len returns the vector length l of the batch (0 before the first Fill).
func (b *PermBatch) Len() int { return b.l }

// Row returns permutation r as a slice aliasing the batch storage.
// Intended for tests validating the dot-product hit tests against the
// scalar distance comparisons on the very same permutations.
func (b *PermBatch) Row(r int) []float64 { return b.mat[r*b.l : (r+1)*b.l] }

// EdgeProbabilitiesInto estimates the edge existence probability of every
// source column in srcs against the batch's target, writing dst[i] for
// srcs[i]. oneSided selects the Eq.-(4) form Pr{dist_R > dist}; otherwise
// the two-sided |cor| form of Definition 2 is used. All sources must have
// the batch's vector length. dst must have length ≥ len(srcs).
//
// The hit tests are the dot-product reduction: with c = ⟨Xs, Xt⟩ and
// m = (|Xs|² + |Xt|² − 2)/2,
//
//	one-sided:  dist²(Xs, Xt^π) > dist²(Xs, Xt)  ⟺  ⟨Xs, Xt^π⟩ < c
//	two-sided:  |dist²(Xs, Xt^π) − 2| < |dist²(Xs, Xt) − 2|
//	            ⟺  |m − ⟨Xs, Xt^π⟩| < |m − c|.
func (b *PermBatch) EdgeProbabilitiesInto(dst []float64, srcs [][]float64, oneSided bool) {
	if len(dst) < len(srcs) {
		panic("stats: EdgeProbabilitiesInto dst too short")
	}
	inv := 1 / float64(b.samples)
	for lo := 0; lo < len(srcs); lo += batchSrcBlock {
		hi := lo + batchSrcBlock
		if hi > len(srcs) {
			hi = len(srcs)
		}
		block := srcs[lo:hi]
		b.dots = growSlice(b.dots, len(block)*b.samples)
		vecmath.MatMulRowsInto(b.dots, b.mat, b.samples, b.l, block)
		for i, xs := range block {
			c := vecmath.Dot(xs, b.xt)
			dots := b.dots[i*b.samples : (i+1)*b.samples]
			hits := 0
			if oneSided {
				for _, d := range dots {
					if d < c {
						hits++
					}
				}
			} else {
				m := (vecmath.Dot(xs, xs) + b.tNorm2 - 2) / 2
				ch := math.Abs(m - c)
				for _, d := range dots {
					if math.Abs(m-d) < ch {
						hits++
					}
				}
			}
			dst[lo+i] = float64(hits) * inv
		}
	}
}

// MarkovUpperBoundsInto computes the Lemma-4 pruning upper bound
// ub_P = E(Z)/dist for every source column against the batch's target,
// with E(Z) = E[dist(Xs, Xt^R)] estimated over the batch's shared
// permutations — a near-free byproduct of the inner products already
// needed by the hit tests, instead of BoundSamples fresh permutations per
// pair. oneSided=false divides by the |cor|-equivalent two-sided distance.
func (b *PermBatch) MarkovUpperBoundsInto(dst []float64, srcs [][]float64, oneSided bool) {
	if len(dst) < len(srcs) {
		panic("stats: MarkovUpperBoundsInto dst too short")
	}
	inv := 1 / float64(b.samples)
	for lo := 0; lo < len(srcs); lo += batchSrcBlock {
		hi := lo + batchSrcBlock
		if hi > len(srcs) {
			hi = len(srcs)
		}
		block := srcs[lo:hi]
		b.dots = growSlice(b.dots, len(block)*b.samples)
		vecmath.MatMulRowsInto(b.dots, b.mat, b.samples, b.l, block)
		for i, xs := range block {
			nrm := vecmath.Dot(xs, xs) + b.tNorm2
			var ez float64
			for _, d := range b.dots[i*b.samples : (i+1)*b.samples] {
				d2 := nrm - 2*d
				if d2 > 0 {
					ez += math.Sqrt(d2)
				}
			}
			ez *= inv
			d2 := nrm - 2*vecmath.Dot(xs, b.xt)
			if d2 < 0 {
				d2 = 0
			}
			dist := math.Sqrt(d2)
			if !oneSided {
				dist = TwoSidedDistance(dist)
			}
			dst[lo+i] = MarkovUpperBound(ez, dist)
		}
	}
}

// EdgeProbabilityBatch estimates the one-sided edge existence probability
// of every source in srcs against a shared permutation batch of xt drawn
// from e's stream (see PermBatch). dst must have length ≥ len(srcs).
// Convenience wrapper over an estimator-owned batch; callers scoring many
// target columns should manage their own PermBatch to reuse its scratch.
func (e *Estimator) EdgeProbabilityBatch(dst []float64, srcs [][]float64, xt []float64, samples int) {
	b := PermBatch{mat: e.ar.batchMat, dots: e.ar.batchDots}
	b.Fill(e, xt, samples)
	b.EdgeProbabilitiesInto(dst, srcs, true)
	e.ar.batchMat, e.ar.batchDots = b.mat, b.dots
}

// AbsEdgeProbabilityBatch is EdgeProbabilityBatch for the two-sided
// (absolute-correlation) form of Definition 2.
func (e *Estimator) AbsEdgeProbabilityBatch(dst []float64, srcs [][]float64, xt []float64, samples int) {
	b := PermBatch{mat: e.ar.batchMat, dots: e.ar.batchDots}
	b.Fill(e, xt, samples)
	b.EdgeProbabilitiesInto(dst, srcs, false)
	e.ar.batchMat, e.ar.batchDots = b.mat, b.dots
}
