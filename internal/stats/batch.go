// Batched Monte Carlo inference kernel (DESIGN.md §9).
//
// The scalar estimators above pay, per candidate pair (s, t), R fresh
// Fisher–Yates permutations of Xt plus R O(l) squared-distance passes. The
// batched kernel restructures that work around one query matrix:
//
//  1. One permutation table per matrix: R index permutations of [0, l)
//     are drawn once (PermTable) and shared read-only by every target
//     column, so a matrix pays R shuffles, not R per column. Each pair's
//     estimate still has the distribution of R uniform permutations;
//     estimates of different pairs share their draws and so are
//     correlated, and a per-edge (ε, δ) guarantee needs no independence
//     between edges.
//  2. Dot-product hit tests: permutations preserve the norm, so
//     dist²(Xs, Xt^π) = |Xs|² + |Xt|² − 2·⟨Xs, Xt^π⟩ with constant norms,
//     and each hit test reduces to comparing an inner product against a
//     per-pair precomputed threshold — half the arithmetic of a distance
//     pass.
//  3. Table sums: every product a sample's inner product
//     ⟨Xs, Xt^π⟩ = Σᵢ Xs[i]·Xt[π(i)] adds is one of the pair's l²
//     products Xs[i]·Xt[j]. When l ≤ R a block of four pairs builds those
//     tables once, and each inner product is l reads and adds through
//     offsets drawn with the table (PermBatch.EdgeProbabilitiesThrough):
//     no gather, no multiply per sample. Otherwise a column gathers its
//     R×l batch (PermBatch.Gather) and vecmath.MatMulRowsInto streams it
//     once per four sources. Both add the same products in the same
//     order, so they give the same estimates bit for bit.
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
// share. Draw it once per matrix, then score each column through it
// (PermBatch.EdgeProbabilitiesThrough). A drawn table is only read, so any
// number of goroutines may score through it at once. Indices are int32,
// so a table takes half the bytes of one R×l batch it fills, or as many
// with its offsets.
type PermTable struct {
	l, samples int
	sums       bool    // columns are scored by table sums: l ≤ min(R, maxSumLen)
	idx        []int32 // samples×l: row r is the permutation π_r
	off        []int32 // samples×l when sums: off[r·l+i] = i·l + π_r(i)
}

// maxSumLen caps l on the table-sum path: above it the four pair tables
// of a block (4·l² floats) outgrow the core's cache and gathering is
// faster. quadLen is the size of that block.
const (
	maxSumLen = 64
	quadLen   = 4 * maxSumLen * maxSumLen
)

// Draw replaces the table with samples fresh uniform permutations of
// [0, l) from e's stream (DefaultSamples if samples <= 0). Each row is a
// Fisher–Yates shuffle of the identity, so it consumes the stream exactly
// as one PermuteInto of a length-l vector does, and gathering that vector
// through row r gives the vector the r-th PermuteInto call would write.
//
// When l ≤ min(R, maxSumLen) the same pass writes each row's offsets
// into a pair's l×l product table, off[r·l+i] = i·l + π_r(i), and columns
// are scored by table sums; otherwise they gather. The rule is one of
// cost: a pair's l² products cost no more than its R·l additions, and
// four pairs' tables stay in cache.
func (t *PermTable) Draw(e *Estimator, l, samples int) {
	if samples <= 0 {
		samples = DefaultSamples
	}
	t.l, t.samples = l, samples
	t.sums = l <= samples && l <= maxSumLen
	n := samples * l
	t.idx = growSlice(t.idx, n)
	if t.sums {
		t.off = growSlice(t.off, n)
	} else {
		t.off = t.off[:0]
	}
	for r := 0; r < samples; r++ {
		row := t.idx[r*l : (r+1)*l]
		e.rng.IndexPermInto(row)
		if t.sums {
			off, base := t.off[r*l:(r+1)*l], int32(0)
			for i, p := range row {
				off[i] = base + p
				base += int32(l)
			}
		}
	}
}

// Row returns permutation r as a slice aliasing the table storage.
// Intended for tests checking the scored columns against the scalar
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
	mat     []float64         // samples×l: row r = Xt^{π_r}
	dots    []float64         // blocked inner-product scratch
	quad    *[quadLen]float64 // EdgeProbabilitiesThrough: four interleaved pair tables
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
func growSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
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
			dst[lo+i] = hitShare(b.dots[i*b.samples:(i+1)*b.samples], xs, b.xt, b.tNorm2, oneSided, inv)
		}
	}
}

// hitShare is the estimate of one pair from its R inner products
// dots[r] = ⟨Xs, Xt^{π_r}⟩: the share of samples that pass the
// dot-product hit test (see EdgeProbabilitiesInto), inv being 1/R.
func hitShare(dots, xs, xt []float64, tNorm2 float64, oneSided bool, inv float64) float64 {
	c := vecmath.Dot(xs, xt)
	hits := 0
	if oneSided {
		for _, d := range dots {
			if d < c {
				hits++
			}
		}
	} else {
		m := (vecmath.Dot(xs, xs) + tNorm2 - 2) / 2
		ch := math.Abs(m - c)
		for _, d := range dots {
			if math.Abs(m-d) < ch {
				hits++
			}
		}
	}
	return float64(hits) * inv
}

// EdgeProbabilitiesThrough is EdgeProbabilitiesInto for target column xt
// scored through the matrix's table t: dst[i] is srcs[i]'s estimate over
// the table's permutations, bit for bit the estimate of Gather(t, xt)
// followed by EdgeProbabilitiesInto. It draws nothing, and b is only
// scratch. xt and every source must have the table's length l; dst must
// have length ≥ len(srcs).
//
// A table drawn without offsets is gathered. Otherwise nothing is
// gathered and nothing multiplied per sample: every product a sample's
// inner product ⟨Xs, Xt^π⟩ = Σᵢ Xs[i]·Xt[π(i)] can add is one of the
// pair's l² products P[i·l+j] = Xs[i]·Xt[j], so each pair builds P once
// and each inner product is Σᵢ P[off[r·l+i]], added in the ascending-i
// order vecmath.MatMulRowsInto adds the same products in (l ≤ maxSumLen
// is within one of its column blocks). Scratch is quadLen floats of
// tables and 4·R of sums.
func (b *PermBatch) EdgeProbabilitiesThrough(dst []float64, t *PermTable, xt []float64, srcs [][]float64, oneSided bool) {
	if !t.sums {
		b.Gather(t, xt)
		b.EdgeProbabilitiesInto(dst, srcs, oneSided)
		return
	}
	l, samples := t.l, t.samples
	if len(xt) != l {
		panic("stats: EdgeProbabilitiesThrough length mismatch")
	}
	if len(dst) < len(srcs) {
		panic("stats: EdgeProbabilitiesThrough dst too short")
	}
	tNorm2 := vecmath.Dot(xt, xt)
	inv := 1 / float64(samples)
	if b.quad == nil {
		b.quad = new([quadLen]float64)
	}
	b.dots = growSlice(b.dots, 4*samples)
	si := 0
	for ; si+4 <= len(srcs); si += 4 {
		quadTable(b.quad, srcs[si:si+4], xt)
		tableSums4(b.dots, t.off, l, samples, b.quad)
		for j := 0; j < 4; j++ {
			dst[si+j] = hitShare(b.dots[j*samples:(j+1)*samples], srcs[si+j], xt, tNorm2, oneSided, inv)
		}
	}
	for ; si < len(srcs); si++ {
		pairTable(b.quad, srcs[si], xt)
		tableSums1(b.dots[:samples], t.off, l, b.quad)
		dst[si] = hitShare(b.dots[:samples], srcs[si], xt, tNorm2, oneSided, inv)
	}
}

// pairTable writes the l×l products p[i·l+j] = xs[i]·xt[j].
func pairTable(p *[quadLen]float64, xs, xt []float64) {
	if len(xs) != len(xt) {
		panic("stats: pairTable source length mismatch")
	}
	l := len(xt)
	for i, x := range xs {
		row := p[i*l : (i+1)*l]
		for j, y := range xt {
			row[j] = x * y
		}
	}
}

// quadTable writes the pair tables of four sources interleaved, so that
// product (i, j) of source s is p[4·(i·l+j)+s] = srcs[s][i]·xt[j]: the
// four products one offset selects share a cache line.
func quadTable(p *[quadLen]float64, srcs [][]float64, xt []float64) {
	x0, x1, x2, x3 := srcs[0], srcs[1], srcs[2], srcs[3]
	if len(x0) != len(xt) || len(x1) != len(xt) || len(x2) != len(xt) || len(x3) != len(xt) {
		panic("stats: quadTable source length mismatch")
	}
	l := len(xt)
	for i := range xt {
		row := p[4*i*l : 4*(i+1)*l]
		v0, v1, v2, v3 := x0[i], x1[i], x2[i], x3[i]
		for j, y := range xt {
			q := row[4*j : 4*j+4 : 4*j+4]
			q[0], q[1], q[2], q[3] = v0*y, v1*y, v2*y, v3*y
		}
	}
}

// tableSums4 writes the R inner products of the four pairs of quadTable
// p, dots[s·R+r] = Σᵢ p[4·off[r·l+i]+s], i ascending. Two rows run
// together: eight independent add chains share each pair of offset loads.
// An offset is below l² ≤ quadLen/4, so masking it to the table changes
// nothing and lets the compiler drop the bounds checks.
func tableSums4(dots []float64, off []int32, l, samples int, p *[quadLen]float64) {
	d0, d1 := dots[:samples], dots[samples:2*samples]
	d2, d3 := dots[2*samples:3*samples], dots[3*samples:4*samples]
	r := 0
	for ; r+2 <= samples; r += 2 {
		oa := off[r*l : (r+1)*l]
		ob := off[(r+1)*l : (r+2)*l]
		ob = ob[:len(oa)]
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		for i, ka := range oa {
			ia := int(ka<<2) & (quadLen - 4)
			ib := int(ob[i]<<2) & (quadLen - 4)
			a0 += p[ia]
			a1 += p[ia+1]
			a2 += p[ia+2]
			a3 += p[ia+3]
			b0 += p[ib]
			b1 += p[ib+1]
			b2 += p[ib+2]
			b3 += p[ib+3]
		}
		d0[r], d1[r], d2[r], d3[r] = a0, a1, a2, a3
		d0[r+1], d1[r+1], d2[r+1], d3[r+1] = b0, b1, b2, b3
	}
	if r < samples {
		var a0, a1, a2, a3 float64
		for _, k := range off[r*l : (r+1)*l] {
			i := int(k<<2) & (quadLen - 4)
			a0 += p[i]
			a1 += p[i+1]
			a2 += p[i+2]
			a3 += p[i+3]
		}
		d0[r], d1[r], d2[r], d3[r] = a0, a1, a2, a3
	}
}

// tableSums1 is tableSums4 for the one pair table pairTable writes, four
// rows at a time.
func tableSums1(dots []float64, off []int32, l int, p *[quadLen]float64) {
	const mask = quadLen/4 - 1
	samples := len(dots)
	r := 0
	for ; r+4 <= samples; r += 4 {
		o0 := off[r*l : (r+1)*l]
		o1 := off[(r+1)*l : (r+2)*l]
		o2 := off[(r+2)*l : (r+3)*l]
		o3 := off[(r+3)*l : (r+4)*l]
		o1, o2, o3 = o1[:len(o0)], o2[:len(o0)], o3[:len(o0)]
		var s0, s1, s2, s3 float64
		for i, k := range o0 {
			s0 += p[int(k)&mask]
			s1 += p[int(o1[i])&mask]
			s2 += p[int(o2[i])&mask]
			s3 += p[int(o3[i])&mask]
		}
		dots[r], dots[r+1], dots[r+2], dots[r+3] = s0, s1, s2, s3
	}
	for ; r < samples; r++ {
		var s float64
		for _, k := range off[r*l : (r+1)*l] {
			s += p[int(k)&mask]
		}
		dots[r] = s
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
