// Package plan is the query-planner seam between ad-hoc query-GRN
// inference and index traversal: it turns the paper's own levers — the
// Lemma-2 (ε, δ) sample-size bound and the §4 pivot cost model T_i —
// plus the engine's observed stage statistics into an explicit, per-query
// execution Plan.
//
// A Plan fixes, before the pipeline runs:
//
//   - the Monte Carlo sample count R for exact edge probabilities, chosen
//     from a requested accuracy (ε, δ) via stats.SampleSizeErr instead of
//     the global stats.DefaultSamples;
//   - which optional prune stages run (leaf-level pivot pruning,
//     bit-vector signature filters, Lemma-5 Markov-bound pruning) or
//     whether candidates go straight to refinement;
//   - the query-graph inference kernel (batched vs scalar).
//
// Resolve builds the fixed default plan: a pure round-trip of the
// caller's parameters, byte-identical to the pre-planner pipeline.
// Planner (planner.go) builds adaptive plans by evaluating the cost
// model online from obs-layer stage feedback and cached
// edge-probability density.
//
// The package sits below internal/core in the import order: core
// executes plans, so plan must not import it.
package plan

import (
	"github.com/imgrn/imgrn/internal/stats"
)

// Request carries everything the planner may consult about one query and
// its engine. The zero value of the optional shape fields (QueryGenes,
// CacheEntries, DBVectors, MeanPivotCost) means "unknown"; Resolve
// ignores them, Planner uses them as cost-model inputs.
type Request struct {
	// Eps, Delta request an (ε, δ)-approximation per Lemma 2: when either
	// is non-zero both must be valid (ε > 0, 0 < δ < 1) and the plan's
	// Samples becomes SampleSize(ε, δ), overriding Samples below.
	Eps, Delta float64

	// Samples is the caller's fixed Monte Carlo sample count (0 = engine
	// default), used when no accuracy is requested.
	Samples int

	// Pivot, Signatures, Markov, Batch mirror the fixed pipeline's stage
	// switches (the inverse of core.Params' Disable* ablation flags): the
	// stage set the plan starts from before any adaptive decision.
	Pivot, Signatures, Markov, Batch bool

	// QueryGenes is the query width n_Q when known (0 = unknown); it
	// drives the batch-vs-scalar kernel selection.
	QueryGenes int

	// CacheEntries counts memoized edge probabilities available to this
	// query (same estimator settings), and DBVectors the indexed gene
	// vectors; together they give the cache-density prior that discounts
	// the modeled verification cost.
	CacheEntries int
	DBVectors    int

	// MeanPivotCost is the index's average per-vector §4 cost T_i/n
	// (index.BuildStats.PivotCostSum over vectors). Standardized vectors
	// have pairwise distances in [0, 2], so the per-vector term
	// 2·min_r d_r lies in [0, 4]; values near 4 mean the pivots bound
	// nothing and pivot-based pruning cannot fire.
	MeanPivotCost float64
}

// Plan is the resolved execution plan of one query. It is immutable
// after construction and shared: the sharded coordinator resolves one
// plan per query and every shard executes the same pointer.
type Plan struct {
	// Samples is the Monte Carlo sample count R for exact edge
	// probabilities (0 = engine default, only when no accuracy was
	// requested).
	Samples int

	// FromAccuracy records that Samples was derived from (Eps, Delta)
	// via the Lemma-2 bound rather than passed through.
	FromAccuracy bool

	// Eps, Delta echo the requested accuracy (zero when none).
	Eps, Delta float64

	// Stage switches: false skips the stage. Pivot is leaf-level PPR
	// point-pair pruning, Signatures the bit-vector gene/source filters,
	// Markov the Lemma-5 graph existence pruning, Batch the batched
	// inference kernel. All true (for an all-enabled request) is the
	// paper's fixed pipeline; all prune switches false sends candidates
	// straight to refinement.
	Pivot, Signatures, Markov, Batch bool

	// Adaptive records that at least one decision departed from the
	// fixed pipeline; Skipped lists the departures by stage name
	// ("pivot_prune", "signature", "markov_prune", "batch_kernel").
	Adaptive bool
	Skipped  []string

	// Cost snapshots the cost-model state behind the decisions (zero for
	// a fixed Resolve plan).
	Cost CostModel
}

// CostModel is the planner's modeled view of the refinement economics at
// plan time: per-candidate stage costs in seconds, stage selectivities
// as fractions, and the cache-density discount applied to the modeled
// verification cost.
type CostModel struct {
	MarkovPerCandidate     float64 `json:"markovPerCandidate"`
	MonteCarloPerCandidate float64 `json:"monteCarloPerCandidate"`
	MarkovPruneFrac        float64 `json:"markovPruneFrac"`
	PointPruneFrac         float64 `json:"pointPruneFrac"`
	NodePruneFrac          float64 `json:"nodePruneFrac"`
	CacheHitRate           float64 `json:"cacheHitRate"`
	MeanPivotCost          float64 `json:"meanPivotCost"`
}

// EffectiveSamples is the sample count the estimators will actually use:
// Samples, or stats.DefaultSamples when the plan leaves it 0.
func (p *Plan) EffectiveSamples() int {
	if p.Samples > 0 {
		return p.Samples
	}
	return stats.DefaultSamples
}

// Mode names the plan for metrics and wire labels: "adaptive" when any
// decision departed from the fixed pipeline, else "fixed".
func (p *Plan) Mode() string {
	if p.Adaptive {
		return "adaptive"
	}
	return "fixed"
}

// Resolve builds the fixed default plan for req: the requested stage set
// verbatim, with Samples either carried through or — when an accuracy is
// requested — chosen as the Lemma-2 bound R = SampleSize(Eps, Delta).
// The errors are an invalid (Eps, Delta) and a sample count — requested or
// implied by the accuracy — above stats.MaxSamples. Applying a Resolve plan
// back onto the parameters it came from is the identity, which is what
// keeps the default plan byte-identical to the pre-planner pipeline.
func Resolve(req Request) (*Plan, error) {
	p := &Plan{
		Samples:    req.Samples,
		Pivot:      req.Pivot,
		Signatures: req.Signatures,
		Markov:     req.Markov,
		Batch:      req.Batch,
	}
	if req.Eps != 0 || req.Delta != 0 {
		r, err := stats.SampleSizeErr(req.Eps, req.Delta)
		if err != nil {
			return nil, err
		}
		p.Samples = r
		p.FromAccuracy = true
		p.Eps, p.Delta = req.Eps, req.Delta
	} else if err := stats.CheckSamples(req.Samples); err != nil {
		return nil, err
	}
	return p, nil
}
