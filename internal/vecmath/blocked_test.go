package vecmath

import (
	"math"
	"testing"

	"github.com/imgrn/imgrn/internal/randgen"
)

func randMatAndSrcs(seed uint64, rows, cols, nsrc int) (mat []float64, srcs [][]float64) {
	rng := randgen.New(seed)
	mat = make([]float64, rows*cols)
	for i := range mat {
		mat[i] = rng.Gaussian(0, 1)
	}
	srcs = make([][]float64, nsrc)
	for s := range srcs {
		srcs[s] = make([]float64, cols)
		for i := range srcs[s] {
			srcs[s][i] = rng.Gaussian(0, 1)
		}
	}
	return mat, srcs
}

// TestMatVecRowsIntoMatchesDot: the unrolled kernel must agree with the
// scalar Dot reference on every row, including rows % 4 tails.
func TestMatVecRowsIntoMatchesDot(t *testing.T) {
	for _, shape := range []struct{ rows, cols int }{
		{1, 1}, {3, 7}, {4, 16}, {5, 50}, {192, 50}, {7, 3000},
	} {
		mat, srcs := randMatAndSrcs(uint64(shape.rows*1000+shape.cols), shape.rows, shape.cols, 1)
		x := srcs[0]
		dst := make([]float64, shape.rows)
		MatVecRowsInto(dst, mat, shape.rows, shape.cols, x)
		for r := 0; r < shape.rows; r++ {
			want := Dot(mat[r*shape.cols:(r+1)*shape.cols], x)
			if math.Abs(dst[r]-want) > 1e-9*(1+math.Abs(want)) {
				t.Errorf("shape %dx%d row %d: kernel %v, Dot %v", shape.rows, shape.cols, r, dst[r], want)
			}
		}
	}
}

// TestMatMulRowsIntoMatchesDot covers the 4-source blocks, the 1–3 source
// tail, and column blocks wider than matBlockCols.
func TestMatMulRowsIntoMatchesDot(t *testing.T) {
	for _, shape := range []struct{ rows, cols, nsrc int }{
		{5, 11, 1}, {5, 11, 4}, {5, 11, 6}, {192, 50, 9}, {3, 2500, 5},
	} {
		mat, srcs := randMatAndSrcs(uint64(shape.rows+shape.cols*31+shape.nsrc*7), shape.rows, shape.cols, shape.nsrc)
		dst := make([]float64, shape.nsrc*shape.rows)
		// Poison dst: the kernel must fully overwrite it.
		for i := range dst {
			dst[i] = math.NaN()
		}
		MatMulRowsInto(dst, mat, shape.rows, shape.cols, srcs)
		for s := 0; s < shape.nsrc; s++ {
			for r := 0; r < shape.rows; r++ {
				want := Dot(mat[r*shape.cols:(r+1)*shape.cols], srcs[s])
				got := dst[s*shape.rows+r]
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Errorf("shape %+v src %d row %d: kernel %v, Dot %v", shape, s, r, got, want)
				}
			}
		}
	}
}

func TestMatMulRowsIntoEmptySrcs(t *testing.T) {
	mat := []float64{1, 2, 3, 4}
	MatMulRowsInto(nil, mat, 2, 2, nil) // must not panic
}

func TestBlockedKernelPanics(t *testing.T) {
	mat := make([]float64, 4)
	for _, fn := range []func(){
		func() { MatVecRowsInto(make([]float64, 2), mat, 2, 2, make([]float64, 3)) },
		func() { MatVecRowsInto(make([]float64, 1), mat, 2, 2, make([]float64, 2)) },
		func() { MatMulRowsInto(make([]float64, 1), mat, 2, 2, [][]float64{{1, 2}, {3, 4}}) },
		func() { MatMulRowsInto(make([]float64, 4), mat, 2, 2, [][]float64{{1, 2, 3}}) },
		func() { SquaredEuclidean4(mat[:2], mat[:2], mat[:2], mat[:3], mat[:2]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on shape mismatch")
				}
			}()
			fn()
		}()
	}
}

// TestSquaredEuclidean4BitIdentical: the interleaved kernel must return
// the exact bits of four separate SquaredEuclidean calls — fixed-seed
// Monte Carlo estimates compare these sums against a threshold, so one
// reassociated addition could flip a hit.
func TestSquaredEuclidean4BitIdentical(t *testing.T) {
	for l := 0; l <= 67; l++ {
		mat, srcs := randMatAndSrcs(uint64(100+l), 4, l, 1)
		x := srcs[0]
		y := func(r int) []float64 { return mat[r*l : (r+1)*l] }
		s0, s1, s2, s3 := SquaredEuclidean4(x, y(0), y(1), y(2), y(3))
		for r, got := range []float64{s0, s1, s2, s3} {
			if want := SquaredEuclidean(x, y(r)); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("l=%d row %d: interleaved %v, scalar %v", l, r, got, want)
			}
		}
	}
}

func BenchmarkMatMulRows(b *testing.B) {
	mat, srcs := randMatAndSrcs(1, 192, 50, 64)
	dst := make([]float64, len(srcs)*192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulRowsInto(dst, mat, 192, 50, srcs)
	}
}
