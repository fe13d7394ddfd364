// Package vecmath provides the dense vector and matrix arithmetic the
// IM-GRN system is built on: standardization of gene feature vectors,
// Pearson correlation, Euclidean distances, and the small dense linear
// algebra (matrix products, Gauss–Jordan inversion) required by the
// synthetic data generator and the partial-correlation inference measure.
//
// All routines operate on float64 slices in row-major order and are
// allocation-conscious: hot-path functions accept destination buffers so the
// query processor can avoid per-edge allocations.
package vecmath

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when two vectors or matrices with
// incompatible shapes are combined.
var ErrDimensionMismatch = errors.New("vecmath: dimension mismatch")

// lengthMismatch is the panic value of the leaf loops below when their
// arguments differ in length. It is an error that formats itself on demand
// rather than a string built at the panic site: a fmt.Sprintf call there —
// or any call, even to an out-of-line helper — costs more of the
// compiler's inlining budget than these loops have to spare, and they run
// once per candidate edge and once per Monte Carlo sample. The text a
// crash or a recover prints is unchanged.
type lengthMismatch struct {
	fn     string
	nx, ny int
}

func (e lengthMismatch) Error() string {
	return fmt.Sprintf("vecmath: %s length mismatch %d != %d", e.fn, e.nx, e.ny)
}

// Dot returns the inner product of x and y.
// It panics if the lengths differ; callers validate shapes at ingestion time.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(lengthMismatch{"Dot", len(x), len(y)})
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm returns the Euclidean (L2) norm of x.
func Norm(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
}

// Mean returns the arithmetic mean of x. It returns 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x (divides by len(x)).
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// Euclidean returns the Euclidean distance between x and y.
func Euclidean(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(lengthMismatch{"Euclidean", len(x), len(y)})
	}
	var s float64
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// SquaredEuclidean returns the squared Euclidean distance between x and y.
func SquaredEuclidean(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(lengthMismatch{"SquaredEuclidean", len(x), len(y)})
	}
	var s float64
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return s
}

// Standardize rescales x in place to zero mean and unit L2 norm, the
// normal form assumed by Lemma 1 of the paper: after standardization
//
//	r(Xs, Xt) = |Xs · Xt|   and   dist²(Xs, Xt) = 2·(1 − Xs·Xt) ≤ 4.
//
// A vector with (numerically) zero variance cannot be standardized; it is
// mapped to the zero vector and false is returned so callers can treat the
// gene as uninformative (it correlates with nothing).
func Standardize(x []float64) bool {
	m := Mean(x)
	for i := range x {
		x[i] -= m
	}
	n := Norm(x)
	if n < 1e-30 {
		for i := range x {
			x[i] = 0
		}
		return false
	}
	inv := 1 / n
	for i := range x {
		x[i] *= inv
	}
	return true
}

// StandardizedCopy returns a standardized copy of x and whether the vector
// had usable variance (see Standardize).
func StandardizedCopy(x []float64) ([]float64, bool) {
	c := make([]float64, len(x))
	copy(c, x)
	ok := Standardize(c)
	return c, ok
}

// IsStandardized reports whether x has zero mean and unit norm within tol.
func IsStandardized(x []float64, tol float64) bool {
	return math.Abs(Mean(x)) <= tol && math.Abs(Norm(x)-1) <= tol
}

// Pearson returns the (signed) Pearson correlation coefficient between x
// and y. Either vector having zero variance yields a correlation of 0.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vecmath: Pearson length mismatch %d != %d", len(x), len(y)))
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	den := math.Sqrt(sxx) * math.Sqrt(syy)
	if den < 1e-30 {
		return 0
	}
	r := sxy / den
	// Clamp away floating-point excursions outside [-1, 1].
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r
}

// AbsPearson returns |Pearson(x, y)|, the paper's correlation score
// r(Xs, Xt) of Eq. (2).
func AbsPearson(x, y []float64) float64 {
	return math.Abs(Pearson(x, y))
}

// CorrelationFromDistance converts the Euclidean distance between two
// standardized (zero-mean unit-norm) vectors back to their signed Pearson
// correlation using dist² = 2·(1 − cor), the identity behind Lemma 1.
func CorrelationFromDistance(dist float64) float64 {
	return 1 - dist*dist/2
}

// DistanceFromCorrelation is the inverse of CorrelationFromDistance.
func DistanceFromCorrelation(cor float64) float64 {
	d2 := 2 * (1 - cor)
	if d2 < 0 {
		d2 = 0
	}
	return math.Sqrt(d2)
}

// Scale multiplies every element of x by a, in place.
func Scale(x []float64, a float64) {
	for i := range x {
		x[i] *= a
	}
}

// AXPY computes y[i] += a*x[i] in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("vecmath: AXPY length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	c := make([]float64, len(x))
	copy(c, x)
	return c
}

// MinMax returns the minimum and maximum of x. It panics on empty input.
func MinMax(x []float64) (lo, hi float64) {
	if len(x) == 0 {
		panic("vecmath: MinMax of empty slice")
	}
	lo, hi = x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
