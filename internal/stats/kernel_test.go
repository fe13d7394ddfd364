package stats

import (
	"fmt"
	"math"
	"runtime"
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
	c := math.Abs(vecmath.SquaredEuclidean(xs, xt) - 2)
	perm := make([]float64, len(xt))
	hits := 0
	for i := 0; i < samples; i++ {
		rng.PermuteInto(perm, xt)
		if math.Abs(vecmath.SquaredEuclidean(xs, perm)-2) < c {
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

// TestPermTableGatherMatchesFill: a batch gathered through a table drawn
// from a stream holds, bit for bit, the rows Fill draws from the same
// stream, and the table draw leaves the generator where Fill does.
func TestPermTableGatherMatchesFill(t *testing.T) {
	data := randgen.New(80)
	for _, l := range []int{1, 2, 7, 20, 50} {
		_, xt := rawPair(data, l)
		est, ref := NewEstimator(81), NewEstimator(81)
		var tab PermTable
		tab.Draw(est, l, 37)
		var got, want PermBatch
		got.Gather(&tab, xt)
		want.Fill(ref, xt, 37)
		if got.Samples() != 37 || got.Len() != l {
			t.Fatalf("l=%d: gathered %d rows of %d", l, got.Samples(), got.Len())
		}
		for r := 0; r < 37; r++ {
			if fmt.Sprint(got.Row(r)) != fmt.Sprint(want.Row(r)) {
				t.Fatalf("l=%d row %d: gathered %v, filled %v", l, r, got.Row(r), want.Row(r))
			}
		}
		if *est.rng != *ref.rng {
			t.Errorf("l=%d: generator state differs after Draw", l)
		}
	}
}

// TestPermTableBatchMatchesScalarHits: a column scored through a shared
// table gives every source the hit count of the scalar distance
// comparisons over the same table rows, applied to the target by hand
// (row r of the target is xt[π_r(i)]). One table serves two targets, each
// scored against 0 to 9 sources in one call — every tail of the kernel's
// four-source blocking — on both sidednesses. The dot-product and
// distance forms are algebraically identical; one flipped hit per pair is
// allowed for a tie that fp rounding resolves differently.
func TestPermTableBatchMatchesScalarHits(t *testing.T) {
	data := randgen.New(82)
	est := NewEstimator(83)
	var tab PermTable
	var b PermBatch
	dst := make([]float64, 9)
	for round := 0; round < 90; round++ {
		l := 3 + round%29
		samples := kernelSamples[round%len(kernelSamples)]
		tab.Draw(est, l, samples)
		row := make([]float64, l)
		for target := 0; target < 2; target++ {
			_, xt := stdPair(data, l)
			srcs := make([][]float64, (round+target)%10)
			for j := range srcs {
				srcs[j], _ = stdPair(data, l)
			}
			for _, oneSided := range []bool{true, false} {
				b.EdgeProbabilitiesThrough(dst, &tab, xt, srcs, oneSided)
				for j, xs := range srcs {
					d := vecmath.SquaredEuclidean(xs, xt)
					hits := 0
					for r := 0; r < samples; r++ {
						for i, k := range tab.Row(r) {
							row[i] = xt[k]
						}
						dr := vecmath.SquaredEuclidean(xs, row)
						if oneSided && dr > d || !oneSided && math.Abs(dr-2) < math.Abs(d-2) {
							hits++
						}
					}
					if got := dst[j] * float64(samples); math.Abs(got-float64(hits)) > 1+1e-9 {
						t.Fatalf("round %d (l=%d R=%d) target %d source %d oneSided=%v: batch %v hits, scalar %d",
							round, l, samples, target, j, oneSided, got, hits)
					}
				}
			}
		}
	}
}

// TestPermTableSumsMatchGather: scoring a column through a table by
// pair-table sums gives every source, bit for bit, the estimate of the
// gathered batch and its blocked mat-mat. It runs each l against each R,
// so both sides of the l ≤ R rule are covered (l = 2, 3 and 33 against
// R = 1, 2 or 3 gather, as does l = maxSumLen+1), with 0 to 9 sources:
// every tail of the four-source block, the rows' tail of two, and the
// single pair's tail of four. One scratch batch serves every shape in
// turn, so stale scratch from a longer table cannot leak into a shorter
// one.
func TestPermTableSumsMatchGather(t *testing.T) {
	data := randgen.New(84)
	est := NewEstimator(85)
	var tab PermTable
	var sums, gather PermBatch
	want, got := make([]float64, 9), make([]float64, 9)
	round := 0
	for _, l := range []int{2, 3, 10, 15, 20, 33, maxSumLen, maxSumLen + 1} {
		for _, samples := range []int{1, 2, 3, 5, 48, 1023, 1024} {
			tab.Draw(est, l, samples)
			if wantSums := l <= samples && l <= maxSumLen; tab.sums != wantSums {
				t.Fatalf("l=%d R=%d: table sums %v, want %v", l, samples, tab.sums, wantSums)
			}
			for target := 0; target < 2; target++ {
				round++
				_, xt := stdPair(data, l)
				srcs := make([][]float64, round%10)
				for j := range srcs {
					srcs[j], _ = stdPair(data, l)
				}
				for _, oneSided := range []bool{true, false} {
					gather.Gather(&tab, xt)
					gather.EdgeProbabilitiesInto(want, srcs, oneSided)
					sums.EdgeProbabilitiesThrough(got, &tab, xt, srcs, oneSided)
					for j := range srcs {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("l=%d R=%d target %d source %d of %d oneSided=%v: sums %v, gather %v",
								l, samples, target, j, len(srcs), oneSided, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// TestPermTableScratchStaysBounded: scoring a column through a table
// allocates at most its path's stated scratch. The table-sum path holds
// four l×l tables (quadLen floats at most) and 4·R sums, whatever the
// number of sources; a table with l > R gathers instead and allocates
// exactly what the gather path always has, the R×l batch and one sum per
// sample and source — never an l×l table, which at that l would be
// larger than the batch.
func TestPermTableScratchStaysBounded(t *testing.T) {
	data := randgen.New(86)
	for _, c := range []struct{ l, samples, srcs int }{
		{20, 1024, 9},
		{maxSumLen, maxSumLen, 9},
		{2000, 48, 9},
	} {
		var tab PermTable
		tab.Draw(NewEstimator(87), c.l, c.samples)
		_, xt := stdPair(data, c.l)
		srcs := make([][]float64, c.srcs)
		for j := range srcs {
			srcs[j], _ = stdPair(data, c.l)
		}
		dst := make([]float64, c.srcs)
		var b PermBatch
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.EdgeProbabilitiesThrough(dst, &tab, xt, srcs, false)
		runtime.ReadMemStats(&after)
		floats := quadLen + 4*c.samples
		if !tab.sums {
			floats = c.samples*c.l + c.srcs*c.samples
		}
		// Slack for size-class and page rounding, and for what the
		// runtime allocates meanwhile.
		const slack = 32 << 10
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*floats+slack); got > bound {
			t.Errorf("l=%d R=%d (sums %v): scoring allocated %d bytes, bound %d", c.l, c.samples, tab.sums, got, bound)
		}
	}
}

// refExpectedPermDistances is the scalar reference of the shared-draw
// estimator: each permutation of permuted is drawn once and scored
// against every fixed vector, one distance pass each.
func refExpectedPermDistances(rng *randgen.Rand, fixed [][]float64, permuted []float64, samples int) []float64 {
	perm := make([]float64, len(permuted))
	sums := make([]float64, len(fixed))
	for i := 0; i < samples; i++ {
		rng.PermuteInto(perm, permuted)
		for j, f := range fixed {
			sums[j] += vecmath.Euclidean(f, perm)
		}
	}
	for j := range sums {
		sums[j] /= float64(samples)
	}
	return sums
}

// TestDrawKernelSharedMatchesScalar: ExpectedPermDistances against its
// scalar reference from the same seed, for every tail length, 0 to 9
// fixed vectors and l = 1..24, on one estimator whose scratch block goes
// from long to short vectors and back — comparing every estimate's bits,
// and the generator state left behind, which must be that of samples
// draws whatever the number of fixed vectors.
func TestDrawKernelSharedMatchesScalar(t *testing.T) {
	data := randgen.New(76)
	est, ref := NewEstimator(77), randgen.New(77)
	dst := make([]float64, 9)
	for round := 0; round < 120; round++ {
		l := 1 + (round*7)%24
		samples := kernelSamples[round%len(kernelSamples)]
		if testing.Short() && samples > 192 {
			continue
		}
		fixed := make([][]float64, round%10)
		for j := range fixed {
			fixed[j], _ = rawPair(data, l)
		}
		_, permuted := rawPair(data, l)
		for j := range dst {
			dst[j] = -1
		}
		est.ExpectedPermDistances(dst, fixed, permuted, samples)
		want := refExpectedPermDistances(ref, fixed, permuted, samples)
		for j := range want {
			if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
				t.Fatalf("round %d (l=%d samples=%d) vector %d: blocked %v, scalar %v", round, l, samples, j, dst[j], want[j])
			}
		}
		if len(fixed) < len(dst) && dst[len(fixed)] != -1 {
			t.Fatalf("round %d: wrote past the %d fixed vectors", round, len(fixed))
		}
		if *est.rng != *ref {
			t.Fatalf("round %d (l=%d samples=%d): generator state differs after the call", round, l, samples)
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

// BenchmarkScoreThroughTable times one target column scored against seven
// partners through a shared table of R permutations, by the path the
// table picks ("through") and by gathering ("gather"). Up to
// min(R, maxSumLen) the first is the table-sum path; above it both
// gather.
func BenchmarkScoreThroughTable(b *testing.B) {
	for _, c := range []struct{ l, samples int }{
		{10, 48}, {20, 48}, {10, 1024}, {20, 1024}, {48, 1024}, {maxSumLen, 1024}, {96, 1024},
	} {
		data := randgen.New(90)
		var tab PermTable
		tab.Draw(NewEstimator(91), c.l, c.samples)
		_, xt := stdPair(data, c.l)
		srcs := make([][]float64, 7)
		for j := range srcs {
			srcs[j], _ = stdPair(data, c.l)
		}
		dst := make([]float64, len(srcs))
		var pb PermBatch
		b.Run(fmt.Sprintf("l=%d/R=%d/through", c.l, c.samples), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pb.EdgeProbabilitiesThrough(dst, &tab, xt, srcs, false)
			}
		})
		b.Run(fmt.Sprintf("l=%d/R=%d/gather", c.l, c.samples), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pb.Gather(&tab, xt)
				pb.EdgeProbabilitiesInto(dst, srcs, false)
			}
		})
	}
}
