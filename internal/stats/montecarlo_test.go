package stats

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/vecmath"
)

func TestSampleSize(t *testing.T) {
	// S ≥ (3/ε²)·ln(2/δ)
	got := SampleSize(0.1, 0.05)
	want := int(math.Ceil(3 / 0.01 * math.Log(40)))
	if got != want {
		t.Errorf("SampleSize(0.1, 0.05) = %d, want %d", got, want)
	}
	if SampleSize(0.5, 0.5) <= 0 {
		t.Error("sample size must be positive")
	}
}

func TestSampleSizeMonotonicity(t *testing.T) {
	if SampleSize(0.1, 0.05) <= SampleSize(0.2, 0.05) {
		t.Error("smaller ε must need more samples")
	}
	if SampleSize(0.1, 0.01) <= SampleSize(0.1, 0.1) {
		t.Error("smaller δ must need more samples")
	}
}

func TestSampleSizePanics(t *testing.T) {
	for _, c := range []struct{ eps, delta float64 }{{0, 0.1}, {0.1, 0}, {0.1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SampleSize(%v, %v) should panic", c.eps, c.delta)
				}
			}()
			SampleSize(c.eps, c.delta)
		}()
	}
}

// TestSampleSizeErr: the error-returning variant agrees with SampleSize
// on the valid domain and returns an error — never panics — outside it,
// which is what the query path routes through so HTTP gets a 400.
func TestSampleSizeErr(t *testing.T) {
	for _, c := range []struct{ eps, delta float64 }{{0.1, 0.05}, {0.5, 0.5}, {0.01, 0.001}} {
		n, err := SampleSizeErr(c.eps, c.delta)
		if err != nil {
			t.Fatalf("SampleSizeErr(%v, %v): %v", c.eps, c.delta, err)
		}
		if want := SampleSize(c.eps, c.delta); n != want {
			t.Errorf("SampleSizeErr(%v, %v) = %d, want %d", c.eps, c.delta, n, want)
		}
	}
	for _, c := range []struct{ eps, delta float64 }{
		{0, 0.1}, {0.1, 0}, {0.1, 1}, {-1, 0.5}, {0.1, -0.5}, {0.1, 2},
	} {
		if _, err := SampleSizeErr(c.eps, c.delta); err == nil {
			t.Errorf("SampleSizeErr(%v, %v): want error", c.eps, c.delta)
		}
	}
}

// TestSampleSizeErrOverflow is the regression test for the silently voided
// (ε, δ) guarantee: ε = 1e-9 asks for 1.1e19 samples, whose float→int
// conversion used to come back as math.MinInt64 with a nil error (and the
// estimators then fell back to DefaultSamples). Every bound that is not a
// usable count — above MaxSamples, beyond int, infinite — is an error,
// and the largest admissible accuracy still resolves.
func TestSampleSizeErrOverflow(t *testing.T) {
	for _, eps := range []float64{
		1e-9,   // 1.1e19 samples: overflows int64
		1e-200, // 3/ε² = +Inf
		5e-324, // ε² underflows to 0
		0.003,  // 1.23e6 samples: representable, above the cap
	} {
		if n, err := SampleSizeErr(eps, 0.05); err == nil {
			t.Errorf("SampleSizeErr(%v, 0.05) = %d, want an error", eps, n)
		}
	}
	// Whatever the floats do at the edges of the domain, a nil error
	// comes with a usable count.
	for _, c := range []struct{ eps, delta float64 }{
		{0.0033, 0.05}, {0.1, 5e-324}, {0.0001, 5e-324}, {math.Inf(1), 0.05},
		{0.1, math.Nextafter(1, 0)}, {math.NaN(), 0.05}, {0.1, math.NaN()},
	} {
		if n, err := SampleSizeErr(c.eps, c.delta); err == nil && (n < 0 || n > MaxSamples) {
			t.Errorf("SampleSizeErr(%v, %v) = %d with no error", c.eps, c.delta, n)
		}
	}
	if n, err := SampleSizeErr(0.0033, 0.05); err != nil || n <= DefaultSamples {
		t.Errorf("SampleSizeErr(0.0033, 0.05) = %d, %v; the tightest admitted accuracy must resolve", n, err)
	}
	if err := CheckSamples(MaxSamples); err != nil {
		t.Errorf("CheckSamples(MaxSamples): %v", err)
	}
	if err := CheckSamples(MaxSamples + 1); err == nil {
		t.Error("CheckSamples(MaxSamples+1): want an error")
	}
	if err := CheckSamples(-5); err != nil {
		t.Errorf("CheckSamples(-5) (selects the default): %v", err)
	}
}

func stdPair(rng *randgen.Rand, l int) (xs, xt []float64) {
	for {
		xs = make([]float64, l)
		xt = make([]float64, l)
		for i := 0; i < l; i++ {
			xs[i] = rng.Gaussian(0, 1)
			xt[i] = rng.Gaussian(0, 1)
		}
		if vecmath.Standardize(xs) && vecmath.Standardize(xt) {
			return xs, xt
		}
	}
}

// TestEdgeProbabilityMatchesExact validates the Monte Carlo estimator
// against exhaustive enumeration over all l! permutations.
func TestEdgeProbabilityMatchesExact(t *testing.T) {
	rng := randgen.New(31)
	est := NewEstimator(32)
	for trial := 0; trial < 10; trial++ {
		xs, xt := stdPair(rng, 6)
		exact := ExactEdgeProbability(xs, xt)
		mc := est.EdgeProbability(xs, xt, 4000)
		if math.Abs(exact-mc) > 0.05 {
			t.Errorf("trial %d: exact %v vs MC %v", trial, exact, mc)
		}
	}
}

func TestAbsEdgeProbabilityMatchesExact(t *testing.T) {
	rng := randgen.New(33)
	est := NewEstimator(34)
	for trial := 0; trial < 10; trial++ {
		xs, xt := stdPair(rng, 6)
		exact := ExactAbsEdgeProbability(xs, xt)
		mc := est.AbsEdgeProbability(xs, xt, 4000)
		if math.Abs(exact-mc) > 0.05 {
			t.Errorf("trial %d: exact %v vs MC %v", trial, exact, mc)
		}
	}
}

// TestEdgeProbabilitySidesRelation: the one-sided probability of a pair and
// of its negated partner sum to ≈ 1 (ties aside), and the two-sided
// probability is within [|2p−1| − ε, 1].
func TestEdgeProbabilityNegationSymmetry(t *testing.T) {
	rng := randgen.New(35)
	for trial := 0; trial < 10; trial++ {
		xs, xt := stdPair(rng, 6)
		neg := make([]float64, len(xt))
		for i, v := range xt {
			neg[i] = -v
		}
		p := ExactEdgeProbability(xs, xt)
		q := ExactEdgeProbability(xs, neg)
		// dist(xs, -xt^R) mirrors dist, so p + q counts every permutation
		// at most once plus ties.
		if p+q > 1.000001 {
			t.Errorf("p + q = %v > 1", p+q)
		}
	}
}

func TestPerfectCorrelationProbabilities(t *testing.T) {
	// xt = xs: every permutation has dist >= 0 = dist(xs, xs) with
	// strict inequality unless the permutation fixes the multiset layout.
	xs := []float64{1, 2, 3, 4, 5, 6}
	vecmath.Standardize(xs)
	xt := vecmath.Clone(xs)
	if p := ExactEdgeProbability(xs, xt); p < 0.99 {
		t.Errorf("identical vectors should have near-1 one-sided probability, got %v", p)
	}
	if p := ExactAbsEdgeProbability(xs, xt); p < 0.99 {
		t.Errorf("identical vectors should have near-1 two-sided probability, got %v", p)
	}
}

func TestExpectedPermDistanceMatchesExact(t *testing.T) {
	rng := randgen.New(36)
	est := NewEstimator(37)
	for trial := 0; trial < 8; trial++ {
		fixed, permuted := stdPair(rng, 6)
		exact := ExactExpectedPermDistance(fixed, permuted)
		mc := est.ExpectedPermDistance(fixed, permuted, 4000)
		if math.Abs(exact-mc) > 0.03 {
			t.Errorf("trial %d: exact %v vs MC %v", trial, exact, mc)
		}
	}
}

// TestExpectedPermDistanceRange: for standardized vectors E[dist²] = 2, so
// E[dist] ∈ [1, √2] (Jensen + boundedness).
func TestExpectedPermDistanceRange(t *testing.T) {
	rng := randgen.New(38)
	f := func(seed uint64) bool {
		r := randgen.New(seed ^ rng.Uint64())
		fixed, permuted := stdPair(r, 7)
		e := ExactExpectedPermDistance(fixed, permuted)
		return e >= 0.99 && e <= math.Sqrt2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMarkovBoundDominatesExact is the soundness property behind Lemma 3:
// with the exact E(Z), the Markov bound never falls below the exact
// one-sided probability.
func TestMarkovBoundDominatesExact(t *testing.T) {
	rng := randgen.New(39)
	f := func(seed uint64) bool {
		r := randgen.New(seed ^ rng.Uint64())
		xs, xt := stdPair(r, 6)
		d := vecmath.Euclidean(xs, xt)
		ez := ExactExpectedPermDistance(xs, xt)
		return ExactEdgeProbability(xs, xt) <= MarkovUpperBound(ez, d)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMarkovBoundDominatesExactTwoSided: the two-sided probability is
// bounded by the Markov bound at the |cor|-equivalent distance.
func TestMarkovBoundDominatesExactTwoSided(t *testing.T) {
	rng := randgen.New(40)
	f := func(seed uint64) bool {
		r := randgen.New(seed ^ rng.Uint64())
		xs, xt := stdPair(r, 6)
		d := TwoSidedDistance(vecmath.Euclidean(xs, xt))
		ez := ExactExpectedPermDistance(xs, xt)
		return ExactAbsEdgeProbability(xs, xt) <= MarkovUpperBound(ez, d)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMarkovUpperBoundClamps(t *testing.T) {
	if MarkovUpperBound(1.4, 0) != 1 {
		t.Error("zero distance should yield bound 1")
	}
	if MarkovUpperBound(5, 1) != 1 {
		t.Error("bound should clamp to 1")
	}
	if got := MarkovUpperBound(0.5, 2); got != 0.25 {
		t.Errorf("MarkovUpperBound(0.5, 2) = %v, want 0.25", got)
	}
}

func TestTwoSidedDistance(t *testing.T) {
	// Fixed point at √2 (cor = 0).
	if got := TwoSidedDistance(math.Sqrt2); !almost(got, math.Sqrt2, 1e-12) {
		t.Errorf("TwoSidedDistance(√2) = %v", got)
	}
	// d = 0 (cor 1) and d = 2 (cor −1) both map to 0.
	if got := TwoSidedDistance(0); got != 0 {
		t.Errorf("TwoSidedDistance(0) = %v", got)
	}
	if got := TwoSidedDistance(2); !almost(got, 0, 1e-12) {
		t.Errorf("TwoSidedDistance(2) = %v", got)
	}
	// Symmetric around √2: d and sqrt(4−d²) map to the same value.
	for _, d := range []float64{0.3, 0.9, 1.2} {
		mirror := math.Sqrt(4 - d*d)
		if !almost(TwoSidedDistance(d), TwoSidedDistance(mirror), 1e-12) {
			t.Errorf("TwoSidedDistance not symmetric at %v", d)
		}
	}
}

func TestEstimatorDeterminism(t *testing.T) {
	rng := randgen.New(41)
	xs, xt := stdPair(rng, 10)
	a := NewEstimator(7).EdgeProbability(xs, xt, 100)
	b := NewEstimator(7).EdgeProbability(xs, xt, 100)
	if a != b {
		t.Error("same-seed estimators must agree")
	}
}

func TestEstimatorSplit(t *testing.T) {
	e := NewEstimator(8)
	child := e.Split()
	rng := randgen.New(42)
	xs, xt := stdPair(rng, 10)
	// Split must not panic and must produce usable estimates.
	if p := child.EdgeProbability(xs, xt, 50); p < 0 || p > 1 {
		t.Errorf("split estimator probability out of range: %v", p)
	}
}

func TestDefaultSamplesUsedWhenZero(t *testing.T) {
	rng := randgen.New(43)
	xs, xt := stdPair(rng, 8)
	e := NewEstimator(9)
	if p := e.EdgeProbability(xs, xt, 0); p < 0 || p > 1 {
		t.Errorf("probability out of range: %v", p)
	}
}

func TestExactEdgeProbabilityPanicsOnLongInput(t *testing.T) {
	long := make([]float64, MaxExactLen+1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ExactEdgeProbability(long, long)
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
