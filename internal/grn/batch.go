package grn

import (
	"context"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/stats"
)

// This file is the grn-level face of the batched Monte Carlo inference
// kernel (DESIGN.md §9). The scalar kernel scores each candidate pair
// (s, t) independently — R fresh permutations of Xt and R distance passes
// per pair. The batch kernel draws one stats.PermTable of R index
// permutations per query matrix and scores each target column t through
// it against every partner s < t: by sums over each pair's l×l product
// table when l ≤ min(R, 64), or by a gathered batch and blocked mat-mat,
// with the same estimates either way. The O(n²·R·l) hot loop becomes R shuffles
// per matrix and R·l additions per pair.
//
// RNG-consumption order: both kernels run column by column (InferColumn),
// t ascending. Within a column the scalar kernel draws per PAIR, s
// ascending; the batch kernel draws nothing: its permutations come from
// the matrix's table, drawn before the first column. Under pruning each
// scores only the survivors. Fixed-seed outputs therefore differ between
// the kernels while both remain deterministic and statistically
// equivalent estimates of the same probabilities.

// DrawPerms draws the permutation table of matrix m from the scorer's
// stream — Samples permutations of [0, m.Samples()) — into scorer-owned
// scratch and returns it, for the ScoreColumn and InferColumn calls on m's
// columns. The table stays valid until the next DrawPerms.
func (s *RandomizedScorer) DrawPerms(m *gene.Matrix) *stats.PermTable {
	s.perms.Draw(s.Est, m.Samples(), s.Samples)
	return &s.perms
}

// ScoreColumn scores every source column in srcs against target column t
// through the matrix's permutation table perms (see DrawPerms), writing
// dst[i] for srcs[i] (stats.PermBatch.EdgeProbabilitiesThrough). It draws
// nothing from the scorer's stream. All indices, t included, must be
// informative columns of m. dst must have length ≥ len(srcs). Each
// estimate is distributed as Score's for its pair, at a fraction of the
// permutation and arithmetic cost.
func (s *RandomizedScorer) ScoreColumn(m *gene.Matrix, t int, srcs []int, perms *stats.PermTable, dst []float64) {
	s.cols = gatherStdCols(s.cols, m, srcs)
	s.batch.EdgeProbabilitiesThrough(dst, perms, m.StdCol(t), s.cols, s.OneSided)
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
// Infer and PairScores: it draws m's permutation table, then for every
// informative target column t it scores all informative sources s < t in
// one ScoreColumn call and hands the column's results to visit. The srcs
// and probs slices are reused across columns. It checks ctx before each
// column and returns its error once it is done.
func forEachColumnBatch(ctx context.Context, m *gene.Matrix, sc *RandomizedScorer, visit func(t int, srcs []int, probs []float64)) error {
	cols := InformativeColumns(m, make([]int, 0, m.NumGenes()))
	probs := make([]float64, len(cols))
	var perms *stats.PermTable
	if len(cols) > 1 {
		perms = sc.DrawPerms(m)
	}
	for k := 1; k < len(cols); k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		sc.ScoreColumn(m, cols[k], cols[:k], perms, probs[:k])
		visit(cols[k], cols[:k], probs[:k])
	}
	return nil
}
