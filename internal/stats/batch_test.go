package stats

import (
	"math"
	"testing"

	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/vecmath"
)

// TestBatchEdgeProbabilityMatchesExact is the exact-enumeration
// cross-check of the batch path: at l ≤ MaxExactLen the batched Monte
// Carlo estimate must converge to the exhaustively enumerated probability,
// exactly as the scalar estimator does.
func TestBatchEdgeProbabilityMatchesExact(t *testing.T) {
	rng := randgen.New(51)
	est := NewEstimator(52)
	var b PermBatch
	for trial := 0; trial < 10; trial++ {
		xs, xt := stdPair(rng, 6)
		b.Fill(est, xt, 4000)
		got := make([]float64, 1)
		b.EdgeProbabilitiesInto(got, [][]float64{xs}, true)
		if exact := ExactEdgeProbability(xs, xt); math.Abs(exact-got[0]) > 0.05 {
			t.Errorf("trial %d one-sided: exact %v vs batch MC %v", trial, exact, got[0])
		}
		b.Fill(est, xt, 4000)
		b.EdgeProbabilitiesInto(got, [][]float64{xs}, false)
		if exact := ExactAbsEdgeProbability(xs, xt); math.Abs(exact-got[0]) > 0.05 {
			t.Errorf("trial %d two-sided: exact %v vs batch MC %v", trial, exact, got[0])
		}
	}
}

// TestBatchMatchesScalarAtDefaultSamples: fixed-seed statistical-tolerance
// test. The batch and scalar paths consume the RNG in different orders, so
// their DefaultSamples estimates are independent draws of the same
// binomial; both must sit within a few standard errors of the exact value.
func TestBatchMatchesScalarAtDefaultSamples(t *testing.T) {
	rng := randgen.New(53)
	// 4σ at DefaultSamples: sqrt(0.25/192) ≈ 0.036 per estimator.
	const tol = 0.15
	for trial := 0; trial < 8; trial++ {
		xs, xt := stdPair(rng, 7)
		exact := ExactEdgeProbability(xs, xt)
		scalar := NewEstimator(54).EdgeProbability(xs, xt, DefaultSamples)
		batch := make([]float64, 1)
		NewEstimator(54).EdgeProbabilityBatch(batch, [][]float64{xs}, xt, DefaultSamples)
		if math.Abs(scalar-exact) > tol || math.Abs(batch[0]-exact) > tol {
			t.Errorf("trial %d: exact %v, scalar %v, batch %v", trial, exact, scalar, batch[0])
		}
		exactAbs := ExactAbsEdgeProbability(xs, xt)
		scalarAbs := NewEstimator(55).AbsEdgeProbability(xs, xt, DefaultSamples)
		NewEstimator(55).AbsEdgeProbabilityBatch(batch, [][]float64{xs}, xt, DefaultSamples)
		if math.Abs(scalarAbs-exactAbs) > tol || math.Abs(batch[0]-exactAbs) > tol {
			t.Errorf("trial %d abs: exact %v, scalar %v, batch %v", trial, exactAbs, scalarAbs, batch[0])
		}
	}
}

// TestBatchHitTestMatchesScalarComparison: property test that the
// dot-product hit test agrees with the literal scalar distance comparison
// on the batch's own materialized permutations — i.e. a 1-source batch
// probability equals the fraction of rows r with
// dist²(xs, row_r) > dist²(xs, xt) (one-sided) or
// |dist²(xs, row_r) − 2| < |dist²(xs, xt) − 2| (two-sided).
func TestBatchHitTestMatchesScalarComparison(t *testing.T) {
	rng := randgen.New(56)
	est := NewEstimator(57)
	var b PermBatch
	for trial := 0; trial < 200; trial++ {
		l := 4 + rng.Intn(40)
		xs, xt := stdPair(rng, l)
		samples := 8 + rng.Intn(120)
		b.Fill(est, xt, samples)
		got := make([]float64, 1)
		for _, oneSided := range []bool{true, false} {
			b.EdgeProbabilitiesInto(got, [][]float64{xs}, oneSided)
			d := vecmath.SquaredEuclidean(xs, xt)
			c := math.Abs(d - 2)
			hits := 0
			for r := 0; r < samples; r++ {
				d2 := vecmath.SquaredEuclidean(xs, b.Row(r))
				if oneSided && d2 > d {
					hits++
				}
				if !oneSided && math.Abs(d2-2) < c {
					hits++
				}
			}
			want := float64(hits) / float64(samples)
			// The two formulations are algebraically identical; allow one
			// flipped hit for ties resolved differently by fp rounding.
			if math.Abs(got[0]-want) > 1.0/float64(samples)+1e-12 {
				t.Fatalf("trial %d oneSided=%v l=%d S=%d: batch %v, scalar comparison %v",
					trial, oneSided, l, samples, got[0], want)
			}
		}
	}
}

// TestBatchMarkovBoundsMatchScalarStructure: the batch bound must agree
// with MarkovUpperBound(E(Z), dist) recomputed scalar-style from the same
// shared permutations.
func TestBatchMarkovBoundsMatchScalar(t *testing.T) {
	rng := randgen.New(58)
	est := NewEstimator(59)
	var b PermBatch
	for trial := 0; trial < 50; trial++ {
		l := 5 + rng.Intn(30)
		xs, xt := stdPair(rng, l)
		samples := 8 + rng.Intn(56)
		b.Fill(est, xt, samples)
		for _, oneSided := range []bool{true, false} {
			got := make([]float64, 1)
			b.MarkovUpperBoundsInto(got, [][]float64{xs}, oneSided)
			var ez float64
			for r := 0; r < samples; r++ {
				ez += vecmath.Euclidean(xs, b.Row(r))
			}
			ez /= float64(samples)
			d := vecmath.Euclidean(xs, xt)
			if !oneSided {
				d = TwoSidedDistance(d)
			}
			want := MarkovUpperBound(ez, d)
			if math.Abs(got[0]-want) > 1e-9 {
				t.Fatalf("trial %d oneSided=%v: batch bound %v, scalar %v", trial, oneSided, got[0], want)
			}
		}
	}
}

// TestBatchMarkovBoundDominatesExact: soundness of the batched Lemma-4
// bound — with a generous sample budget it must dominate the exact edge
// probability, like the scalar pruner bound.
func TestBatchMarkovBoundDominatesExact(t *testing.T) {
	rng := randgen.New(60)
	est := NewEstimator(61)
	var b PermBatch
	for trial := 0; trial < 30; trial++ {
		xs, xt := stdPair(rng, 6)
		b.Fill(est, xt, 2048)
		got := make([]float64, 1)
		b.MarkovUpperBoundsInto(got, [][]float64{xs}, false)
		if exact := ExactAbsEdgeProbability(xs, xt); got[0] < exact-0.05 {
			t.Errorf("trial %d: batch bound %v below exact %v", trial, got[0], exact)
		}
	}
}

// TestBatchManySourcesMatchesSingles: scoring a block of sources in one
// kernel call must equal scoring each source alone against the same batch
// (exercises the 4-source blocking and the batchSrcBlock chunking).
func TestBatchManySourcesMatchesSingles(t *testing.T) {
	rng := randgen.New(62)
	est := NewEstimator(63)
	_, xt := stdPair(rng, 20)
	nsrc := 2*batchSrcBlock + 5 // spans multiple chunks plus a tail
	srcs := make([][]float64, nsrc)
	for i := range srcs {
		srcs[i], _ = stdPair(rng, 20)
	}
	var b PermBatch
	b.Fill(est, xt, 64)
	bulk := make([]float64, nsrc)
	b.EdgeProbabilitiesInto(bulk, srcs, false)
	one := make([]float64, 1)
	for i, xs := range srcs {
		b.EdgeProbabilitiesInto(one, [][]float64{xs}, false)
		if bulk[i] != one[0] {
			t.Fatalf("source %d: bulk %v != single %v", i, bulk[i], one[0])
		}
	}
}

// TestBatchDeterminism: same seed, same fills → identical batch scores.
func TestBatchDeterminism(t *testing.T) {
	rng := randgen.New(64)
	xs, xt := stdPair(rng, 12)
	run := func() float64 {
		dst := make([]float64, 1)
		NewEstimator(65).EdgeProbabilityBatch(dst, [][]float64{xs}, xt, 100)
		return dst[0]
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same-seed batch estimates differ: %v vs %v", a, b)
	}
}

// TestArenaSlotsDistinct is the regression test for the scratch aliasing
// hazard: EdgeProbability/AbsEdgeProbability, ExpectedPermDistance,
// ExpectedPermDistances and the batch kernel must each own a distinct
// arena slot, so no call can clobber another call site's in-flight buffer.
func TestArenaSlotsDistinct(t *testing.T) {
	rng := randgen.New(66)
	xs, xt := stdPair(rng, 10)
	e := NewEstimator(67)
	e.EdgeProbability(xs, xt, 8)
	e.ExpectedPermDistance(xs, xt, 8)
	dst := make([]float64, 1)
	e.EdgeProbabilityBatch(dst, [][]float64{xs}, xt, 8)
	e.ExpectedPermDistances(dst, [][]float64{xs}, xt, 8)
	if &e.ar.edgePerm[0] == &e.ar.distPerm[0] {
		t.Error("EdgeProbability and ExpectedPermDistance share a scratch slot")
	}
	if p := &e.ar.sharePerm[0]; p == &e.ar.edgePerm[0] || p == &e.ar.distPerm[0] || p == &e.ar.batchMat[0] {
		t.Error("ExpectedPermDistances shares a scratch slot")
	}
	if &e.ar.edgePerm[0] == &e.ar.batchMat[0] || &e.ar.distPerm[0] == &e.ar.batchMat[0] {
		t.Error("batch kernel shares a scratch slot with a scalar estimator")
	}
	// Interleaving must not corrupt results: an estimator that alternates
	// call sites agrees with one that runs them back-to-back from the same
	// RNG state for the deterministic (non-consuming) reads.
	perm := e.ar.distPerm
	before := append([]float64(nil), perm...)
	e.EdgeProbability(xs, xt, 8) // must not touch distPerm's backing array
	for i := range perm {
		if perm[i] != before[i] {
			t.Fatal("EdgeProbability clobbered ExpectedPermDistance's scratch")
		}
	}
}
