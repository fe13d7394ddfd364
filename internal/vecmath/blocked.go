package vecmath

// Blocked inner-product kernels for the batched Monte Carlo inference path
// (DESIGN.md §9). The hot object is a row-major "permutation matrix": R
// rows of length l, each row one randomized copy of a target gene vector.
// Computing the R inner products of a source vector against those rows is
// a mat-vec; computing them for a block of source vectors is a mat-mat.
// Both kernels below are cache-blocked over columns and unrolled so the
// permutation matrix is streamed once per four source vectors instead of
// once per pair, which is where the batched estimator gets its arithmetic
// density.

// matBlockCols is the column block width of the kernels: a 4-row working
// set of this width is 4·2048·8 B = 64 KiB, sized so one block of the
// permutation matrix plus the source vectors stay cache-resident while
// the accumulators live in registers.
const matBlockCols = 2048

// MatVecRowsInto computes dst[r] = ⟨mat row r, x⟩ for every row of the
// rows×cols row-major matrix mat. dst must have length ≥ rows and x
// length cols. Rows are processed four at a time with independent
// accumulators so x is re-read from cache, not memory.
func MatVecRowsInto(dst, mat []float64, rows, cols int, x []float64) {
	if len(x) != cols {
		panic("vecmath: MatVecRowsInto x length mismatch")
	}
	if len(mat) < rows*cols {
		panic("vecmath: MatVecRowsInto matrix too short")
	}
	if len(dst) < rows {
		panic("vecmath: MatVecRowsInto dst too short")
	}
	r := 0
	for ; r+4 <= rows; r += 4 {
		r0 := mat[(r+0)*cols : (r+1)*cols]
		r1 := mat[(r+1)*cols : (r+2)*cols]
		r2 := mat[(r+2)*cols : (r+3)*cols]
		r3 := mat[(r+3)*cols : (r+4)*cols]
		var s0, s1, s2, s3 float64
		for i, xv := range x {
			s0 += r0[i] * xv
			s1 += r1[i] * xv
			s2 += r2[i] * xv
			s3 += r3[i] * xv
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
	for ; r < rows; r++ {
		dst[r] = Dot(mat[r*cols:(r+1)*cols], x)
	}
}

// MatMulRowsInto computes the inner products of every source vector in
// srcs against every row of the rows×cols row-major matrix mat:
//
//	dst[si*rows + r] = ⟨srcs[si], mat row r⟩.
//
// dst must have length ≥ len(srcs)*rows and every source length cols.
// Sources are processed in blocks of four sharing one streaming pass over
// a column block of mat (the blocked mat-mat of the inference kernel), so
// the matrix traffic per source is a quarter of the naive mat-vec loop.
func MatMulRowsInto(dst, mat []float64, rows, cols int, srcs [][]float64) {
	if len(mat) < rows*cols {
		panic("vecmath: MatMulRowsInto matrix too short")
	}
	if len(dst) < len(srcs)*rows {
		panic("vecmath: MatMulRowsInto dst too short")
	}
	for si, x := range srcs {
		if len(x) != cols {
			panic("vecmath: MatMulRowsInto source length mismatch")
		}
		_ = si
	}
	n := len(srcs) * rows
	for i := range dst[:n] {
		dst[i] = 0
	}
	for c0 := 0; c0 < cols; c0 += matBlockCols {
		c1 := c0 + matBlockCols
		if c1 > cols {
			c1 = cols
		}
		si := 0
		for ; si+4 <= len(srcs); si += 4 {
			x0 := srcs[si+0][c0:c1]
			x1 := srcs[si+1][c0:c1]
			x2 := srcs[si+2][c0:c1]
			x3 := srcs[si+3][c0:c1]
			d0 := dst[(si+0)*rows : (si+1)*rows]
			d1 := dst[(si+1)*rows : (si+2)*rows]
			d2 := dst[(si+2)*rows : (si+3)*rows]
			d3 := dst[(si+3)*rows : (si+4)*rows]
			for r := 0; r < rows; r++ {
				row := mat[r*cols+c0 : r*cols+c1]
				var s0, s1, s2, s3 float64
				for i, v := range row {
					s0 += v * x0[i]
					s1 += v * x1[i]
					s2 += v * x2[i]
					s3 += v * x3[i]
				}
				d0[r] += s0
				d1[r] += s1
				d2[r] += s2
				d3[r] += s3
			}
		}
		for ; si < len(srcs); si++ {
			x := srcs[si][c0:c1]
			d := dst[si*rows : (si+1)*rows]
			for r := 0; r < rows; r++ {
				row := mat[r*cols+c0 : r*cols+c1]
				var s float64
				for i, v := range row {
					s += v * x[i]
				}
				d[r] += s
			}
		}
	}
}

// SquaredEuclidean4 returns the squared Euclidean distances from x to four
// vectors of the same length. Each result is the single ascending
// s += d*d chain SquaredEuclidean computes — bit-identical to four
// separate calls — but the four chains advance together, so their
// latency-bound additions overlap and x is read once. It is the hit-test
// half of the Monte Carlo draw kernel (DESIGN.md §9).
func SquaredEuclidean4(x, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64) {
	if len(y0) != len(x) || len(y1) != len(x) || len(y2) != len(x) || len(y3) != len(x) {
		panic("vecmath: SquaredEuclidean4 length mismatch")
	}
	for i, v := range x {
		d0, d1, d2, d3 := v-y0[i], v-y1[i], v-y2[i], v-y3[i]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return
}
