package grn

import (
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/stats"
	"github.com/imgrn/imgrn/internal/vecmath"
)

// Infer reconstructs the GRN of matrix m under inference threshold gamma
// (Definition 2/3): an edge {s, t} exists with probability score(s, t)
// whenever score(s, t) > gamma. All O(n²) pairs are scored; use
// InferPruned with a RandomizedScorer to skip pairs Lemma 3 eliminates.
func Infer(m *gene.Matrix, sc Scorer, gamma float64) (*Graph, error) {
	if err := sc.Prepare(m); err != nil {
		return nil, fmt.Errorf("grn: preparing %s scorer: %w", sc.Name(), err)
	}
	g := NewGraph(m.Genes())
	if rs, ok := sc.(*RandomizedScorer); ok && rs.Batch {
		forEachColumnBatch(m, rs, func(t int, srcs []int, probs []float64) {
			for i, s := range srcs {
				if probs[i] > gamma {
					g.SetEdge(s, t, probs[i])
				}
			}
		})
		return g, nil
	}
	n := m.NumGenes()
	for s := 0; s < n; s++ {
		for t := s + 1; t < n; t++ {
			if p := sc.Score(m, s, t); p > gamma {
				g.SetEdge(s, t, p)
			}
		}
	}
	return g, nil
}

// PairScores returns the full n×n symmetric score matrix of m under sc,
// used by the ROC experiments of Section 6.2 (every pair needs a score, not
// only those above a threshold).
func PairScores(m *gene.Matrix, sc Scorer) (*vecmath.Matrix, error) {
	if err := sc.Prepare(m); err != nil {
		return nil, fmt.Errorf("grn: preparing %s scorer: %w", sc.Name(), err)
	}
	n := m.NumGenes()
	out := vecmath.NewMatrix(n, n)
	if rs, ok := sc.(*RandomizedScorer); ok && rs.Batch {
		forEachColumnBatch(m, rs, func(t int, srcs []int, probs []float64) {
			for i, s := range srcs {
				out.Set(s, t, probs[i])
				out.Set(t, s, probs[i])
			}
		})
		return out, nil
	}
	for s := 0; s < n; s++ {
		for t := s + 1; t < n; t++ {
			p := sc.Score(m, s, t)
			out.Set(s, t, p)
			out.Set(t, s, p)
		}
	}
	return out, nil
}

// Pruner supplies cheap upper bounds on edge existence probabilities for
// Lemma 3 edge inference pruning.
type Pruner struct {
	// Est estimates E(Z) = E[dist(Xs, Xt^R)] by Monte Carlo.
	Est *stats.Estimator
	// BoundSamples is the (small) sample count used for the E(Z) estimate;
	// estimating a mean needs far fewer samples than estimating the tail
	// probability itself, which is where the Lemma 3 pruning saves work.
	BoundSamples int
	// OneSided matches the scorer's sidedness: the two-sided bound divides
	// E(Z) by the |cor|-equivalent distance min(d, sqrt(4 − d²)).
	OneSided bool

	batch stats.PermBatch // UpperBoundColumn shared-permutation scratch
	cols  [][]float64     // UpperBoundColumn source-column scratch
}

// DefaultBoundSamples is the bound sample count used when callers pass
// samples <= 0: estimating the E(Z) mean needs far fewer draws than the
// tail probability it bounds.
const DefaultBoundSamples = 16

// NewPruner returns a Pruner with the given seed and bound sample count
// (DefaultBoundSamples when samples <= 0).
func NewPruner(seed uint64, samples int) *Pruner {
	if samples <= 0 {
		samples = DefaultBoundSamples
	}
	return &Pruner{Est: stats.NewEstimator(seed), BoundSamples: samples}
}

// Reseed resets the pruner's estimator stream in place to the state a
// fresh NewPruner(seed, ·) would hold; see RandomizedScorer.Reseed.
func (p *Pruner) Reseed(seed uint64) {
	p.Est.Reseed(seed)
}

// UpperBound returns ub_P(e_{s,t}) of Lemma 4: E(Z)/dist(Xs, Xt), clamped
// to [0, 1]. xs and xt must be standardized. In the (default) two-sided
// mode the denominator is the |cor|-equivalent distance.
func (p *Pruner) UpperBound(xs, xt []float64) float64 {
	d := vecmath.Euclidean(xs, xt)
	if !p.OneSided {
		d = stats.TwoSidedDistance(d)
	}
	ez := p.Est.ExpectedPermDistance(xs, xt, p.BoundSamples)
	return stats.MarkovUpperBound(ez, d)
}

// InferStats reports how much work edge pruning saved during inference.
type InferStats struct {
	Pairs     int // total candidate pairs n·(n−1)/2
	Pruned    int // pairs eliminated by Lemma 3 before exact estimation
	Estimated int // pairs that required the full Monte Carlo estimate
	Edges     int // edges in the resulting graph
	// BoundCalls counts Monte Carlo samples spent on bounds (diagnostic).
	// On the scalar kernel this is BoundSamples per pair; on the batch
	// kernel the permutations are shared across a whole target column, so
	// it is BoundSamples per column with ≥1 candidate pair.
	BoundCalls int
	// Kernel is the time spent inside the batched inference kernel (batch
	// fills, blocked inner products, bound/score reductions); zero on the
	// scalar path. Exposed so the query tracer can split kernel time from
	// the rest of inference.
	Kernel time.Duration
}

// InferPruned reconstructs the GRN of m with the IM-GRN randomized measure,
// applying the Lemma 3 edge inference pruning before each exact Monte Carlo
// estimate: when ub_P(e) = E(Z)/dist ≤ γ the edge cannot exist and the
// expensive estimate is skipped. This is the query-graph inference step of
// the IM-GRN_Processing algorithm (Fig. 4, line 1). It runs InferColumn on
// every informative target column t in ascending order, against the
// informative partners s < t, on the one stream of sc and pr.
func InferPruned(m *gene.Matrix, sc *RandomizedScorer, pr *Pruner, gamma float64) (*Graph, InferStats, error) {
	var st InferStats
	g := NewGraph(m.Genes())
	cols := InformativeColumns(m, make([]int, 0, m.NumGenes()))
	probs := make([]float64, len(cols))
	for k := 1; k < len(cols); k++ {
		t, srcs := cols[k], cols[:k]
		st.Pairs += k
		if pr != nil {
			calls := pr.BoundSamples
			if !sc.Batch {
				calls *= k
			}
			st.BoundCalls += calls
		}
		begin := time.Now()
		est := sc.InferColumn(m, t, srcs, pr, gamma, probs[:k])
		if sc.Batch {
			st.Kernel += time.Since(begin)
		}
		st.Estimated += est
		st.Pruned += k - est
		for i, s := range srcs {
			if probs[i] > gamma {
				g.SetEdge(s, t, probs[i])
				st.Edges++
			}
		}
	}
	return g, st, nil
}

// InformativeColumns appends the informative column indices of m, in
// ascending order, to buf[:0] and returns it. Column cols[k]'s informative
// partners s < cols[k] are exactly cols[:k].
func InformativeColumns(m *gene.Matrix, buf []int) []int {
	buf = buf[:0]
	for j := 0; j < m.NumGenes(); j++ {
		if m.Informative(j) {
			buf = append(buf, j)
		}
	}
	return buf
}

// InferColumn is the column step of pruned inference: it bounds every
// partner s in srcs against target column t (Lemma 3), keeps the partners
// whose bound exceeds gamma, and scores the survivors. dst[i] receives
// srcs[i]'s estimate, or NaN where Lemma 3 pruned the pair; the result is
// the number of survivors. A nil pr keeps every partner. sc.Batch picks
// the kernel: shared permutation batches of column t (UpperBoundColumn,
// ScoreColumn), or per-pair UpperBound and Score in srcs order. Either way
// the scorer draws nothing for a column Lemma 3 prunes entirely. All
// indices must be informative columns of m, srcs ascending and below t;
// dst must have length len(srcs).
func (s *RandomizedScorer) InferColumn(m *gene.Matrix, t int, srcs []int, pr *Pruner, gamma float64, dst []float64) int {
	switch {
	case pr == nil:
		for i := range dst {
			dst[i] = math.Inf(1)
		}
	case s.Batch:
		pr.UpperBoundColumn(m, t, srcs, dst)
	default:
		xt := m.StdCol(t)
		for i, src := range srcs {
			dst[i] = pr.UpperBound(m.StdCol(src), xt)
		}
	}
	surv := s.surv[:0]
	for i, src := range srcs {
		if dst[i] > gamma {
			surv = append(surv, src)
		}
	}
	s.surv = surv
	vals := slices.Grow(s.vals[:0], len(surv))[:len(surv)]
	s.vals = vals
	switch {
	case len(surv) == 0:
	case s.Batch:
		s.ScoreColumn(m, t, surv, vals)
	default:
		for k, src := range surv {
			vals[k] = s.Score(m, src, t)
		}
	}
	k := 0
	for i, src := range srcs {
		dst[i] = math.NaN()
		if k < len(surv) && surv[k] == src {
			dst[i] = vals[k]
			k++
		}
	}
	return len(surv)
}

// GraphExistenceUpperBound returns UB_Pr{G} of Lemma 5: the product of
// per-edge upper bounds. Pass the upper bound of each query-matched edge.
func GraphExistenceUpperBound(edgeUBs []float64) float64 {
	ub := 1.0
	for _, b := range edgeUBs {
		ub *= b
	}
	return ub
}

// PruneByGraphExistence implements Lemma 5: a candidate subgraph whose
// appearance-probability upper bound is ≤ α cannot be an answer.
func PruneByGraphExistence(ub, alpha float64) bool { return ub <= alpha }
