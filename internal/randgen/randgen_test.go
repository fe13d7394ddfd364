package randgen

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed should produce identical streams")
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("nearby seeds collide on %d of 64 outputs", same)
	}
}

func TestZeroSeedIsUsable(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed appears to produce a degenerate stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(9)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 64; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("split children collide on %d of 64 outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnBoundsAndCoverage(t *testing.T) {
	r := New(12)
	seen := make([]bool, 7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("Intn never produced %d", v)
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(13)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("Intn(%d): value %d occurred %d times, want ≈ %v", n, v, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntIn(t *testing.T) {
	r := New(14)
	for i := 0; i < 1000; i++ {
		v := r.IntIn(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("IntIn(5,9) = %d", v)
		}
	}
}

func TestIntInPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).IntIn(3, 2)
}

func TestUniformIn(t *testing.T) {
	r := New(15)
	for i := 0; i < 1000; i++ {
		v := r.UniformIn(-2, 3)
		if v < -2 || v >= 3 {
			t.Fatalf("UniformIn out of range: %v", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(16)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ≈ 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance = %v, want ≈ 1", variance)
	}
}

func TestGaussian(t *testing.T) {
	r := New(17)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Gaussian(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Errorf("Gaussian(10,2) mean = %v", mean)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		orig := []float64{1, 2, 2, 3, 5, 8, 13}
		x := append([]float64(nil), orig...)
		r.Shuffle(x)
		sort.Float64s(x)
		for i := range orig {
			if x[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(18)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

// TestShuffleUniformity verifies Fisher–Yates produces each of the 6
// permutations of 3 elements with roughly equal frequency.
func TestShuffleUniformity(t *testing.T) {
	r := New(19)
	counts := make(map[[3]float64]int)
	const trials = 60000
	for i := 0; i < trials; i++ {
		x := []float64{1, 2, 3}
		r.Shuffle(x)
		counts[[3]float64{x[0], x[1], x[2]}]++
	}
	if len(counts) != 6 {
		t.Fatalf("saw %d distinct permutations, want 6", len(counts))
	}
	want := float64(trials) / 6
	for p, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("permutation %v occurred %d times, want ≈ %v", p, c, want)
		}
	}
}

func TestPermuteInto(t *testing.T) {
	r := New(20)
	src := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	r.PermuteInto(dst, src)
	sorted := append([]float64(nil), dst...)
	sort.Float64s(sorted)
	for i, v := range sorted {
		if v != src[i] {
			t.Fatalf("PermuteInto is not a permutation: %v", dst)
		}
	}
}

func TestPermuteIntoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).PermuteInto(make([]float64, 2), make([]float64, 3))
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(21)
	s := r.SampleWithoutReplacement(10, 5)
	if len(s) != 5 {
		t.Fatalf("len = %d", len(s))
	}
	seen := make(map[int]bool)
	for _, v := range s {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid sample: %v", s)
		}
		seen[v] = true
	}
	full := r.SampleWithoutReplacement(4, 4)
	if len(full) != 4 {
		t.Error("full sample should have every element")
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).SampleWithoutReplacement(3, 4)
}

var sinkFloat float64

// BenchmarkPermuteInto times one randomized vector X^R of Definition 2 at
// the vector lengths the datasets use; ns/op divided by l−1 is the cost
// of one bounded draw plus swap.
func BenchmarkPermuteInto(b *testing.B) {
	for _, l := range []int{10, 20, 50} {
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			r := New(1)
			src := make([]float64, l)
			for i := range src {
				src[i] = float64(i)
			}
			dst := make([]float64, l)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.PermuteInto(dst, src)
			}
			sinkFloat = dst[0]
		})
	}
}
