package grn

import (
	"fmt"
	"math"
	"sort"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/stats"
	"github.com/imgrn/imgrn/internal/vecmath"
)

// Scorer assigns an interaction score in [0, 1] to a pair of genes of one
// matrix. A GRN is inferred by keeping the edges whose score exceeds the
// ad-hoc inference threshold γ. Implementations are not required to be safe
// for concurrent use.
type Scorer interface {
	// Name identifies the measure in experiment output ("IM-GRN",
	// "Correlation", "pCorr", "MI").
	Name() string
	// Prepare is called once per matrix before any Score call for that
	// matrix, allowing whole-matrix precomputation (e.g. the precision
	// matrix behind partial correlations).
	Prepare(m *gene.Matrix) error
	// Score returns the interaction score of columns s and t of the
	// prepared matrix.
	Score(m *gene.Matrix, s, t int) float64
}

// RandomizedScorer is the paper's IM-GRN measure (Definition 2): the
// probability that the observed (absolute) correlation of two gene vectors
// exceeds the correlation against a randomized (permuted) vector, estimated
// by Monte Carlo in the Euclidean reduction of Lemma 1.
//
// By default the absolute Pearson form of Definition 2 is used
// ("two-sided": strong negative correlations also count as interactions).
// OneSided selects the literal Eq.-(4) reduction Pr{dist_R > dist}, which
// only credits positive correlations; the two forms agree whenever
// cor + cor_R ≥ 0, the regime assumed by Lemma 1's proof.
type RandomizedScorer struct {
	Est      *stats.Estimator
	Samples  int  // Monte Carlo samples per pair; DefaultSamples if <= 0
	OneSided bool // use the signed Eq.-(4) form

	// Batch enables the batched inference kernel (DESIGN.md §9): the bulk
	// entry points (Infer, InferPruned, InferColumn, PairScores) share one
	// permutation batch per target column and score all its partners with
	// blocked dot-product kernels. Per-pair Score calls are unaffected. The
	// batch kernel consumes the estimator RNG in a different order than the
	// scalar one, so fixed-seed results differ between the two (both are
	// individually deterministic and statistically equivalent).
	Batch bool

	batch stats.PermBatch // ScoreColumn shared-permutation scratch
	cols  [][]float64     // ScoreColumn source-column scratch
	surv  []int           // InferColumn survivor scratch
	vals  []float64       // InferColumn survivor-estimate scratch
}

// NewRandomizedScorer returns the canonical IM-GRN scorer with the batched
// inference kernel enabled.
func NewRandomizedScorer(seed uint64, samples int) *RandomizedScorer {
	return &RandomizedScorer{Est: stats.NewEstimator(seed), Samples: samples, Batch: true}
}

// Reseed resets the scorer's estimator stream in place to the state a
// fresh NewRandomizedScorer(seed, ·) would hold, keeping the batch and
// column scratch warm. All scratch is refilled before it is read, so a
// reseeded scorer draws exactly the stream a newly constructed one would.
func (s *RandomizedScorer) Reseed(seed uint64) {
	s.Est.Reseed(seed)
}

// Name implements Scorer.
func (s *RandomizedScorer) Name() string { return "IM-GRN" }

// Prepare implements Scorer (no per-matrix state is needed).
func (s *RandomizedScorer) Prepare(*gene.Matrix) error { return nil }

// Score implements Scorer.
func (s *RandomizedScorer) Score(m *gene.Matrix, a, b int) float64 {
	if !m.Informative(a) || !m.Informative(b) {
		return 0
	}
	if s.OneSided {
		return s.Est.EdgeProbability(m.StdCol(a), m.StdCol(b), s.Samples)
	}
	return s.Est.AbsEdgeProbability(m.StdCol(a), m.StdCol(b), s.Samples)
}

// AnalyticScorer approximates the same IM-GRN probability with the normal
// approximation of the permutation null: for standardized vectors of length
// l, the permutation distribution of Xs·Xt^R has mean 0 and variance
// 1/(l−1), so
//
//	two-sided: e.p ≈ 2·Φ( |cor| · sqrt(l−1) ) − 1
//	one-sided: e.p ≈ Φ( cor · sqrt(l−1) ).
//
// It is orders of magnitude faster than Monte Carlo and is used by the
// large benchmark sweeps; an ablation benchmark quantifies its agreement
// with the Monte Carlo estimator.
type AnalyticScorer struct {
	OneSided bool
}

// Name implements Scorer.
func (AnalyticScorer) Name() string { return "IM-GRN(analytic)" }

// Prepare implements Scorer.
func (AnalyticScorer) Prepare(*gene.Matrix) error { return nil }

// Score implements Scorer.
func (s AnalyticScorer) Score(m *gene.Matrix, a, b int) float64 {
	if !m.Informative(a) || !m.Informative(b) {
		return 0
	}
	return s.VecProb(m.StdCol(a), m.StdCol(b))
}

// VecProb is the approximate edge probability of two standardized
// vectors of equal length.
func (s AnalyticScorer) VecProb(xa, xb []float64) float64 {
	l := len(xa)
	if l < 2 {
		return 0
	}
	cor := vecmath.Dot(xa, xb)
	if s.OneSided {
		return stdNormalCDF(cor * math.Sqrt(float64(l-1)))
	}
	return 2*stdNormalCDF(math.Abs(cor)*math.Sqrt(float64(l-1))) - 1
}

// stdNormalCDF is Φ(x) via the complementary error function.
func stdNormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// CorrelationScorer is the classical relevance-network measure: the
// absolute Pearson correlation coefficient of Eq. (2). It is the paper's
// main effectiveness competitor ("Correlation").
type CorrelationScorer struct{}

// Name implements Scorer.
func (CorrelationScorer) Name() string { return "Correlation" }

// Prepare implements Scorer.
func (CorrelationScorer) Prepare(*gene.Matrix) error { return nil }

// Score implements Scorer.
func (CorrelationScorer) Score(m *gene.Matrix, a, b int) float64 {
	if !m.Informative(a) || !m.Informative(b) {
		return 0
	}
	return math.Abs(vecmath.Dot(m.StdCol(a), m.StdCol(b)))
}

// PartialCorrScorer is the pCorr competitor of Appendix H: the absolute
// partial correlation of each pair controlling for all remaining genes,
// computed from the (ridge-regularized) inverse correlation matrix.
type PartialCorrScorer struct {
	// Ridge is added to the diagonal of the correlation matrix before
	// inversion; required whenever genes outnumber samples.
	Ridge float64

	prepared *gene.Matrix
	pc       *vecmath.Matrix
}

// Name implements Scorer.
func (s *PartialCorrScorer) Name() string { return "pCorr" }

// Prepare implements Scorer.
func (s *PartialCorrScorer) Prepare(m *gene.Matrix) error {
	ridge := s.Ridge
	if ridge == 0 {
		ridge = 1e-3
	}
	cols := make([][]float64, m.NumGenes())
	for j := range cols {
		cols[j] = m.Col(j)
	}
	raw, err := vecmath.NewMatrixFromRows(cols) // rows = gene vectors
	if err != nil {
		return err
	}
	// PartialCorrelations works on columns; transpose so columns are genes.
	pc, err := vecmath.PartialCorrelations(raw.Transpose(), ridge)
	if err != nil {
		return fmt.Errorf("grn: pCorr prepare: %w", err)
	}
	s.prepared, s.pc = m, pc
	return nil
}

// Score implements Scorer.
func (s *PartialCorrScorer) Score(m *gene.Matrix, a, b int) float64 {
	if s.prepared != m {
		if err := s.Prepare(m); err != nil {
			return 0
		}
	}
	return math.Abs(s.pc.At(a, b))
}

// MutualInfoScorer estimates the mutual information between two gene
// vectors with an equal-frequency (rank) histogram and maps it to [0, 1]
// via the Gaussian information-correlation transform
// r_MI = sqrt(1 − exp(−2·I)). This is the mutual-information inference
// measure the paper defers to future work (Section 2.2); it plugs into the
// same ad-hoc matching pipeline.
type MutualInfoScorer struct {
	// Bins is the number of histogram bins per axis; max(2, ⌊√(l/5)⌋) when 0.
	Bins int
}

// Name implements Scorer.
func (s *MutualInfoScorer) Name() string { return "MI" }

// Prepare implements Scorer.
func (s *MutualInfoScorer) Prepare(*gene.Matrix) error { return nil }

// Score implements Scorer.
func (s *MutualInfoScorer) Score(m *gene.Matrix, a, b int) float64 {
	x, y := m.Col(a), m.Col(b)
	l := len(x)
	if l < 4 {
		return 0
	}
	bins := s.Bins
	if bins <= 0 {
		bins = int(math.Sqrt(float64(l) / 5))
		if bins < 2 {
			bins = 2
		}
	}
	bx := equalFrequencyBins(x, bins)
	by := equalFrequencyBins(y, bins)
	joint := make([]float64, bins*bins)
	px := make([]float64, bins)
	py := make([]float64, bins)
	inv := 1 / float64(l)
	for i := 0; i < l; i++ {
		joint[bx[i]*bins+by[i]] += inv
		px[bx[i]] += inv
		py[by[i]] += inv
	}
	var mi float64
	for i := 0; i < bins; i++ {
		for j := 0; j < bins; j++ {
			p := joint[i*bins+j]
			if p > 0 {
				mi += p * math.Log(p/(px[i]*py[j]))
			}
		}
	}
	if mi < 0 {
		mi = 0
	}
	return math.Sqrt(1 - math.Exp(-2*mi))
}

// equalFrequencyBins assigns each value its rank-quantile bin in [0, bins).
func equalFrequencyBins(x []float64, bins int) []int {
	l := len(x)
	idx := make([]int, l)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return x[idx[i]] < x[idx[j]] })
	out := make([]int, l)
	for rank, i := range idx {
		b := rank * bins / l
		if b >= bins {
			b = bins - 1
		}
		out[i] = b
	}
	return out
}
