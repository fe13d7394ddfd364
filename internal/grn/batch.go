package grn

import (
	"github.com/imgrn/imgrn/internal/gene"
)

// This file is the grn-level face of the batched Monte Carlo inference
// kernel (DESIGN.md §9). The scalar kernel scores each candidate pair
// (s, t) independently — R fresh permutations of Xt and R distance passes
// per pair. The batch kernel fixes the target column t, draws its R
// permutations once into a stats.PermBatch, and scores every partner s < t
// against that shared batch with blocked dot-product kernels, turning the
// O(n²·R·l) hot loop into n shared batch fills plus blocked mat-mat inner
// products.
//
// RNG-consumption order: both kernels run column by column (InferColumn),
// t ascending. Within a column the scalar kernel draws per PAIR, s
// ascending; the batch kernel draws once per COLUMN. Under pruning each
// scores only the survivors. Fixed-seed outputs therefore differ between
// the kernels while both remain deterministic and statistically equivalent
// estimates of the same probabilities.

// ScoreColumn scores every source column in srcs against target column t
// using one shared permutation batch, writing dst[i] for srcs[i]. All
// indices, t included, must be informative columns of m. dst must have
// length ≥ len(srcs). Equivalent in distribution to calling Score for each
// pair, at a fraction of the permutation and arithmetic cost.
func (s *RandomizedScorer) ScoreColumn(m *gene.Matrix, t int, srcs []int, dst []float64) {
	s.batch.Fill(s.Est, m.StdCol(t), s.Samples)
	s.cols = gatherStdCols(s.cols, m, srcs)
	s.batch.EdgeProbabilitiesInto(dst, s.cols, s.OneSided)
}

// UpperBoundColumn computes the Lemma-4 pruning upper bound of every source
// column in srcs against target column t, writing dst[i] for srcs[i]. The
// E(Z) estimates reuse one shared batch of BoundSamples permutations of
// column t instead of BoundSamples fresh permutations per pair, making the
// bound a near-free byproduct of the batch's inner products. All indices
// must be informative columns of m; dst must have length ≥ len(srcs).
func (p *Pruner) UpperBoundColumn(m *gene.Matrix, t int, srcs []int, dst []float64) {
	p.batch.Fill(p.Est, m.StdCol(t), p.BoundSamples)
	p.cols = gatherStdCols(p.cols, m, srcs)
	p.batch.MarkovUpperBoundsInto(dst, p.cols, p.OneSided)
}

// gatherStdCols fills buf with the standardized columns idx of m, growing
// it as needed.
func gatherStdCols(buf [][]float64, m *gene.Matrix, idx []int) [][]float64 {
	if cap(buf) < len(idx) {
		buf = make([][]float64, len(idx))
	}
	buf = buf[:len(idx)]
	for i, j := range idx {
		buf[i] = m.StdCol(j)
	}
	return buf
}

// forEachColumnBatch drives the unpruned batch inference loop shared by
// Infer and PairScores: for every informative target column t it scores all
// informative sources s < t in one ScoreColumn call and hands the column's
// results to visit. The srcs and probs slices are reused across columns.
func forEachColumnBatch(m *gene.Matrix, sc *RandomizedScorer, visit func(t int, srcs []int, probs []float64)) {
	cols := InformativeColumns(m, make([]int, 0, m.NumGenes()))
	probs := make([]float64, len(cols))
	for k := 1; k < len(cols); k++ {
		sc.ScoreColumn(m, cols[k], cols[:k], probs[:k])
		visit(cols[k], cols[:k], probs[:k])
	}
}
