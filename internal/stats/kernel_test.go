package stats

import (
	"fmt"
	"math"
	"testing"

	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/vecmath"
)

// The scalar reference loops: one permutation drawn, one distance pass,
// one test, per sample. The blocked estimators must reproduce them bit for
// bit from the same generator state (DESIGN.md §9, "draw kernel").

func refEdgeProbability(rng *randgen.Rand, xs, xt []float64, samples int) float64 {
	d := vecmath.SquaredEuclidean(xs, xt)
	perm := make([]float64, len(xt))
	hits := 0
	for i := 0; i < samples; i++ {
		rng.PermuteInto(perm, xt)
		if vecmath.SquaredEuclidean(xs, perm) > d {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}

func refAbsEdgeProbability(rng *randgen.Rand, xs, xt []float64, samples int) float64 {
	c := abs(vecmath.SquaredEuclidean(xs, xt) - 2)
	perm := make([]float64, len(xt))
	hits := 0
	for i := 0; i < samples; i++ {
		rng.PermuteInto(perm, xt)
		if abs(vecmath.SquaredEuclidean(xs, perm)-2) < c {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}

func refExpectedPermDistance(rng *randgen.Rand, fixed, permuted []float64, samples int) float64 {
	perm := make([]float64, len(permuted))
	var sum float64
	for i := 0; i < samples; i++ {
		rng.PermuteInto(perm, permuted)
		sum += vecmath.Euclidean(fixed, perm)
	}
	return sum / float64(samples)
}

// kernelSamples covers every tail length of the block of four, the two
// sample counts the engine uses by default (16 bound samples, 192), their
// off-by-one neighbours and the benchmark's 1024.
var kernelSamples = []int{1, 2, 3, 4, 5, 16, 191, 192, 1024}

// TestDrawKernelMatchesScalar: each blocked estimator against its scalar
// reference from the same seed, for every tail length and l = 1..40,
// comparing the estimate's bits and the generator state left behind.
func TestDrawKernelMatchesScalar(t *testing.T) {
	data := randgen.New(71)
	for l := 1; l <= 40; l++ {
		xs, xt := rawPair(data, l)
		for _, samples := range kernelSamples {
			if testing.Short() && samples > 192 && l%8 != 0 {
				continue
			}
			seed := uint64(1000*l + samples)
			for _, c := range []struct {
				name string
				got  func(*Estimator) float64
				want func(*randgen.Rand) float64
			}{
				{"EdgeProbability",
					func(e *Estimator) float64 { return e.EdgeProbability(xs, xt, samples) },
					func(r *randgen.Rand) float64 { return refEdgeProbability(r, xs, xt, samples) }},
				{"AbsEdgeProbability",
					func(e *Estimator) float64 { return e.AbsEdgeProbability(xs, xt, samples) },
					func(r *randgen.Rand) float64 { return refAbsEdgeProbability(r, xs, xt, samples) }},
				{"ExpectedPermDistance",
					func(e *Estimator) float64 { return e.ExpectedPermDistance(xs, xt, samples) },
					func(r *randgen.Rand) float64 { return refExpectedPermDistance(r, xs, xt, samples) }},
			} {
				est, ref := NewEstimator(seed), randgen.New(seed)
				got, want := c.got(est), c.want(ref)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s l=%d samples=%d: blocked %v, scalar %v", c.name, l, samples, got, want)
				}
				if *est.rng != *ref {
					t.Errorf("%s l=%d samples=%d: generator state differs after the call", c.name, l, samples)
				}
			}
		}
	}
}

// TestDrawKernelInterleaved runs the three estimators alternately on ONE
// Estimator with changing vector lengths and sample counts — the case
// where a shared or stale scratch block would show (TestArenaSlotsDistinct
// guards the slots; this guards what is computed through them) — against
// the scalar references consuming one generator in the same order.
func TestDrawKernelInterleaved(t *testing.T) {
	data := randgen.New(72)
	est, ref := NewEstimator(73), randgen.New(73)
	for round := 0; round < 60; round++ {
		l := 1 + data.Intn(40)
		samples := kernelSamples[data.Intn(len(kernelSamples)-1)] // 1024 left to the test above
		xs, xt := rawPair(data, l)
		var got, want float64
		switch round % 3 {
		case 0:
			got, want = est.EdgeProbability(xs, xt, samples), refEdgeProbability(ref, xs, xt, samples)
		case 1:
			got, want = est.ExpectedPermDistance(xs, xt, samples), refExpectedPermDistance(ref, xs, xt, samples)
		case 2:
			got, want = est.AbsEdgeProbability(xs, xt, samples), refAbsEdgeProbability(ref, xs, xt, samples)
		}
		if math.Float64bits(got) != math.Float64bits(want) || *est.rng != *ref {
			t.Fatalf("round %d (l=%d samples=%d): blocked %v, scalar %v", round, l, samples, got, want)
		}
	}
}

// TestPermBatchFillMatchesScalarDraws: the shared batch materializes
// exactly the permutations the same number of scalar draws would.
func TestPermBatchFillMatchesScalarDraws(t *testing.T) {
	data := randgen.New(74)
	for _, l := range []int{1, 7, 20, 50} {
		_, xt := rawPair(data, l)
		est, ref := NewEstimator(75), randgen.New(75)
		var b PermBatch
		b.Fill(est, xt, 37)
		perm := make([]float64, l)
		for r := 0; r < b.Samples(); r++ {
			ref.PermuteInto(perm, xt)
			if fmt.Sprint(b.Row(r)) != fmt.Sprint(perm) {
				t.Fatalf("l=%d row %d: batch %v, scalar %v", l, r, b.Row(r), perm)
			}
		}
		if *est.rng != *ref {
			t.Errorf("l=%d: generator state differs after Fill", l)
		}
	}
}

// rawPair draws two unstandardized Gaussian vectors (l = 1 cannot be
// standardized, and the kernel contract does not depend on it).
func rawPair(rng *randgen.Rand, l int) (xs, xt []float64) {
	xs, xt = make([]float64, l), make([]float64, l)
	for i := range xs {
		xs[i] = rng.Gaussian(0, 1)
		xt[i] = 0.5*xs[i] + rng.Gaussian(0, 1)
	}
	return xs, xt
}
