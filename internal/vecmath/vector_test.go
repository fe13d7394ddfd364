package vecmath

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"github.com/imgrn/imgrn/internal/randgen"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Errorf("Dot(nil, nil) = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// TestLengthMismatchPanicText pins what a mismatch crash prints: the
// panic value formats itself lazily, and the text must stay the one the
// eagerly formatted string used to carry.
func TestLengthMismatchPanicText(t *testing.T) {
	for name, fn := range map[string]func(){
		"Dot":              func() { Dot(make([]float64, 1), make([]float64, 2)) },
		"Euclidean":        func() { Euclidean(make([]float64, 1), make([]float64, 2)) },
		"SquaredEuclidean": func() { SquaredEuclidean(make([]float64, 1), make([]float64, 2)) },
	} {
		func() {
			defer func() {
				want := "vecmath: " + name + " length mismatch 1 != 2"
				if got := fmt.Sprint(recover()); got != want {
					t.Errorf("panic text %q, want %q", got, want)
				}
			}()
			fn()
		}()
	}
}

func TestNorm(t *testing.T) {
	if got := Norm([]float64{3, 4}); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
}

func TestMeanVariance(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := Mean(x); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Variance(x); got != 1.25 {
		t.Errorf("Variance = %v, want 1.25", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("Mean/Variance of empty slice should be 0")
	}
}

func TestEuclidean(t *testing.T) {
	x := []float64{0, 0}
	y := []float64{3, 4}
	if got := Euclidean(x, y); got != 5 {
		t.Errorf("Euclidean = %v, want 5", got)
	}
	if got := SquaredEuclidean(x, y); got != 25 {
		t.Errorf("SquaredEuclidean = %v, want 25", got)
	}
}

func TestStandardize(t *testing.T) {
	x := []float64{1, 5, -3, 7, 2}
	if !Standardize(x) {
		t.Fatal("Standardize returned false for varied vector")
	}
	if !IsStandardized(x, 1e-12) {
		t.Errorf("vector not standardized: mean=%v norm=%v", Mean(x), Norm(x))
	}
}

func TestStandardizeConstantVector(t *testing.T) {
	x := []float64{2, 2, 2}
	if Standardize(x) {
		t.Error("Standardize should return false for a constant vector")
	}
	for _, v := range x {
		if v != 0 {
			t.Errorf("constant vector should map to zero vector, got %v", x)
		}
	}
}

func TestStandardizedCopyDoesNotMutate(t *testing.T) {
	x := []float64{1, 2, 3}
	c, ok := StandardizedCopy(x)
	if !ok {
		t.Fatal("expected ok")
	}
	if x[0] != 1 || x[1] != 2 || x[2] != 3 {
		t.Error("StandardizedCopy mutated its input")
	}
	if !IsStandardized(c, 1e-12) {
		t.Error("copy not standardized")
	}
}

func TestPearsonKnownValues(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10} // perfectly correlated
	if got := Pearson(x, y); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", got)
	}
	z := []float64{10, 8, 6, 4, 2} // perfectly anti-correlated
	if got := Pearson(x, z); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", got)
	}
	if got := AbsPearson(x, z); !almostEqual(got, 1, 1e-12) {
		t.Errorf("AbsPearson = %v, want 1", got)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	x := []float64{1, 1, 1}
	y := []float64{1, 2, 3}
	if got := Pearson(x, y); got != 0 {
		t.Errorf("Pearson with constant vector = %v, want 0", got)
	}
}

func TestPearsonSymmetry(t *testing.T) {
	rng := randgen.New(1)
	for i := 0; i < 50; i++ {
		x := randomVector(rng, 10)
		y := randomVector(rng, 10)
		if a, b := Pearson(x, y), Pearson(y, x); !almostEqual(a, b, 1e-12) {
			t.Fatalf("Pearson asymmetric: %v vs %v", a, b)
		}
	}
}

// TestDistanceCorrelationIdentity verifies the Lemma-1 identity behind the
// whole Euclidean reduction: for standardized vectors,
// dist² = 2·(1 − cor).
func TestDistanceCorrelationIdentity(t *testing.T) {
	rng := randgen.New(2)
	f := func(seed uint64) bool {
		r := randgen.New(seed ^ rng.Uint64())
		x := randomVector(r, 12)
		y := randomVector(r, 12)
		Standardize(x)
		Standardize(y)
		cor := Dot(x, y)
		d2 := SquaredEuclidean(x, y)
		return almostEqual(d2, 2*(1-cor), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCorrelationDistanceRoundTrip(t *testing.T) {
	for _, cor := range []float64{-1, -0.5, 0, 0.3, 0.99, 1} {
		d := DistanceFromCorrelation(cor)
		if got := CorrelationFromDistance(d); !almostEqual(got, cor, 1e-12) {
			t.Errorf("round trip of cor=%v gives %v", cor, got)
		}
	}
}

func TestScaleAXPYClone(t *testing.T) {
	x := []float64{1, 2}
	Scale(x, 3)
	if x[0] != 3 || x[1] != 6 {
		t.Errorf("Scale: got %v", x)
	}
	y := []float64{1, 1}
	AXPY(2, x, y)
	if y[0] != 7 || y[1] != 13 {
		t.Errorf("AXPY: got %v", y)
	}
	c := Clone(y)
	c[0] = 99
	if y[0] == 99 {
		t.Error("Clone aliases its input")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%v, %v), want (-1, 7)", lo, hi)
	}
}

func TestMinMaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MinMax(nil)
}

func randomVector(rng *randgen.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Gaussian(0, 1)
	}
	return v
}
