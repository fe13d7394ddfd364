// Package core implements the paper's primary contribution: the
// IM-GRN_Processing algorithm of Figure 4 — ad-hoc inference of the query
// GRN, bit-vector and Lemma-6 pruned pairwise traversal of the R*-tree
// index, pivot and edge-inference pruning of candidate gene pairs, graph
// existence pruning (Lemma 5), and Monte Carlo refinement of the surviving
// candidate matrices. The package also provides the two competitors used in
// Section 6.3: Baseline (offline materialization of all pairwise edge
// probabilities plus a linear scan) and LinearScan (no index, per-pair
// pruning only).
package core

import (
	"time"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/obs"
	"github.com/imgrn/imgrn/internal/plan"
	"github.com/imgrn/imgrn/internal/stats"
)

// Params are the per-query IM-GRN parameters of Definition 4 plus
// estimation knobs.
type Params struct {
	// Gamma is the ad-hoc inference threshold γ ∈ [0, 1).
	Gamma float64
	// Alpha is the probabilistic matching threshold α ∈ [0, 1).
	Alpha float64
	// Samples is the Monte Carlo sample count for exact edge probabilities
	// (stats.DefaultSamples when 0). Overridden by Eps/Delta or an
	// explicit Plan.
	Samples int
	// Eps and Delta request a per-query (ε, δ)-approximation: when either
	// is non-zero both must satisfy Lemma 2's domain (ε > 0, 0 < δ < 1;
	// Validate rejects the rest) and the query plan chooses
	// Samples = stats.SampleSize(Eps, Delta) instead of the value above.
	Eps   float64
	Delta float64
	// BoundSamples is the (small) sample count for the Lemma-3 E(Z)
	// estimate (16 when 0).
	BoundSamples int
	// Seed drives the Monte Carlo estimators.
	Seed uint64
	// Analytic switches the exact edge probability from Monte Carlo to the
	// permutation-null normal approximation; used by large benchmark
	// sweeps.
	Analytic bool
	// OneSided selects the literal Eq.-(4) signed reduction, which only
	// credits positive correlations. The default (false) is the absolute
	// Pearson form of Definition 2, under which strong negative
	// correlations are interactions too; all pruning bounds adapt.
	OneSided bool

	// Workers bounds intra-query parallelism: candidate refinement and
	// Monte Carlo query-graph inference run on an exec pool of up to
	// Workers goroutines, each claiming one work unit at a time (0 or 1
	// runs every work unit inline). Neither graphs nor answers depend on
	// it: every refinement edge estimate draws from its own (Seed, source,
	// column pair) stream and every inference target column from its own
	// (Seed, column) stream, whichever worker runs it.
	Workers int

	// Cache optionally memoizes exact edge-probability estimates across
	// queries. The cache must only be shared among queries with identical
	// estimator settings (Samples, Seed, Analytic, OneSided, and the
	// sequential budget stats.SeqBudget(Delta)); the public Engine manages
	// this keying automatically.
	Cache *EdgeProbCache

	// Trace optionally collects per-stage spans (durations plus candidate
	// in/out counts) for this query. Nil disables tracing at zero cost;
	// tracing never changes answers or the RNG streams, only observes.
	Trace *obs.Tracer

	// Sink optionally streams verified answers into a shared bounded top-k
	// merge (the coordinators' top-k path, DESIGN.md §10). When set,
	// refinement hands its candidates out in descending Lemma-5 upper-bound
	// order, offers each answer to the sink as it is found, and skips a
	// candidate whose bound is at or below the sink's floor (the current
	// k-th probability across all shards) when its unit starts. The sink's
	// top k is deterministic; which candidates the rising floor prunes, and
	// therefore the pruning counters, may vary with timing. Nil (the
	// default) returns every match.
	Sink *TopKSink

	// Plan pins this query's execution plan. Nil (the usual case) makes
	// the processor resolve the fixed default plan from the params —
	// byte-identical to the pre-planner pipeline; the sharded coordinator
	// resolves once per query so every shard executes the same plan, and
	// the server installs adaptive plans from its cost-model Planner.
	// When set, the plan's decisions override Samples and the stage
	// switches below (DisableIndexPruning and DisableGeneRange stay
	// caller-controlled: they are ablation-only and not planned), and its
	// Batch decision picks the query-inference kernel.
	Plan *plan.Plan

	// Ablation switches (used by the benchmark harness to isolate the
	// contribution of each pruning layer; leave false in production).
	DisableIndexPruning  bool // skip Lemma 6 node-pair pruning
	DisablePivotPruning  bool // skip leaf-level PPR point-pair pruning
	DisableSignatures    bool // skip bit-vector gene/source node filters
	DisableGeneRange     bool // skip gene-ID MBR range tests on node pairs
	DisableMarkovPruning bool // skip Lemma-5 graph existence pruning of candidates
}

// Validate reports whether the thresholds are in range, including the
// Lemma-2 domain of a requested (Eps, Delta) and the stats.MaxSamples cap
// on the sample count either knob leads to. Bad accuracy parameters
// surface here as an error — never as a stats.SampleSize panic or a
// silently replaced sample count — so the HTTP layer can answer 400.
func (p Params) Validate() error {
	if p.Gamma < 0 || p.Gamma >= 1 {
		return errOutOfRange("Gamma", p.Gamma)
	}
	if p.Alpha < 0 || p.Alpha >= 1 {
		return errOutOfRange("Alpha", p.Alpha)
	}
	if p.Eps != 0 || p.Delta != 0 {
		_, err := stats.SampleSizeErr(p.Eps, p.Delta)
		return err
	}
	return stats.CheckSamples(p.Samples)
}

// planRequest maps the params onto the planner's view of the query: the
// stage switches invert the Disable* ablation flags, the accuracy and
// sample knobs pass through, and the batch inference kernel is requested
// (a pinned Plan is the one way to select the scalar kernel).
func (p Params) planRequest() plan.Request {
	return plan.Request{
		Eps:        p.Eps,
		Delta:      p.Delta,
		Samples:    p.Samples,
		Pivot:      !p.DisablePivotPruning,
		Signatures: !p.DisableSignatures,
		Markov:     !p.DisableMarkovPruning,
		Batch:      true,
	}
}

// ResolvePlan returns params with a query plan resolved and applied:
// a nil Plan is replaced by the fixed default plan (a pure round-trip of
// the params, so behavior is byte-identical to the pre-planner
// pipeline), and the plan's decisions are written back onto Samples and
// the stage switches. Idempotent; the sharded coordinator calls it once
// per query before scattering so every shard shares one plan, and
// NewProcessor calls it so direct processor use is planned too.
func (p Params) ResolvePlan() (Params, error) {
	if p.Plan == nil {
		pl, err := plan.Resolve(p.planRequest())
		if err != nil {
			return p, err
		}
		p.Plan = pl
	}
	pl := p.Plan
	p.Samples = pl.Samples
	p.DisablePivotPruning = !pl.Pivot
	p.DisableSignatures = !pl.Signatures
	p.DisableMarkovPruning = !pl.Markov
	return p, nil
}

// seqBudget is the budget δ′ of refinement's sequential rejection
// (stats.SeqBudget): the plan's δ when one is resolved, else Delta.
func (p Params) seqBudget() float64 {
	if p.Plan != nil {
		return stats.SeqBudget(p.Plan.Delta)
	}
	return stats.SeqBudget(p.Delta)
}

type paramErr struct {
	name string
	v    float64
}

func errOutOfRange(name string, v float64) error { return paramErr{name, v} }

func (e paramErr) Error() string {
	return "core: parameter " + e.name + " out of [0,1)"
}

// Answer is one IM-GRN result: a database matrix whose inferred GRN
// contains the query with confidence above α.
type Answer struct {
	// Source is the data source ID of the matching matrix M_i.
	Source int
	// Prob is the appearance probability Pr{G} of the matched subgraph.
	Prob float64
	// Edges are the matched edges in query-vertex indexing, each carrying
	// its existence probability in the data GRN.
	Edges []grn.Edge
	// Genes maps query vertex index -> matched gene ID.
	Genes []gene.ID
}

// Stats reports the cost metrics of Section 6 for one query.
type Stats struct {
	// Durations of the processing phases. InferQuery, Traversal,
	// Refinement and Total are wall-clock; MarkovPrune and MonteCarlo
	// break Refinement down into its Lemma-5 upper-bound pruning and
	// exact-verification parts, summed across candidates (so with
	// Workers > 1 they are aggregate CPU time, not wall clock, and may
	// exceed Refinement). Without a top-k sink (whose candidate ordering
	// always computes the bound products), MarkovPrune and
	// MatricesPrunedL5 read 0 when the query skips Lemma 5: the plan
	// switched it off, or the index certifies that no candidate's bound
	// product can fall to α (pivot.BoundFloor). The markov_prune span then
	// records in == survivors.
	InferQuery  time.Duration
	Traversal   time.Duration
	Refinement  time.Duration
	MarkovPrune time.Duration
	MonteCarlo  time.Duration
	Total       time.Duration

	// IOCost is the number of simulated page accesses ("disk" reads):
	// the distinct pages the query touched, or every touch when the index
	// is unbuffered. IOHits counts the repeat touches its buffer absorbed.
	IOCost uint64
	IOHits uint64

	// Pruning effectiveness counters.
	NodePairsVisited  int
	NodePairsPruned   int // by Lemma 6 or signatures during traversal
	PointPairsChecked int
	PointPairsPruned  int // by pivot pruning at the leaf level
	CandidateGenes    int // distinct candidate gene vectors after pruning
	CandidateMatrices int
	MatricesPrunedL5  int // candidate matrices removed by Lemma 5
	Answers           int

	// Edge-probability cache effectiveness during refinement (zero when no
	// cache is configured). A candidate probes each edge once, before any
	// draw: a hit is an estimate, or a bound that already fails; a miss is
	// an edge left to draw, whether or not the candidate gets to it.
	CacheHits   int
	CacheMisses int

	// Draws counts the Monte Carlo permutations refinement's edge
	// estimates consumed (the Lemma-3 bound draws are not counted). It is
	// at most R per estimated edge; curtailment stops an edge's draws once
	// its estimate can no longer pass.
	Draws int

	// Query graph shape.
	QueryVertices int
	QueryEdges    int

	// Plan is the execution plan this query ran under (never nil for a
	// processor query: a nil Params.Plan resolves to the fixed default
	// plan). Shared, immutable; sharded queries report the one plan all
	// shards executed.
	Plan *plan.Plan
}

// PlanFeedback maps the query's realized stage statistics onto the
// planner's feedback record, closing the observability loop: the server
// (and the experiments harness) feed it into a plan.Planner after every
// query.
func (st Stats) PlanFeedback() plan.Feedback {
	return plan.Feedback{
		Candidates:        st.CandidateMatrices,
		PrunedL5:          st.MatricesPrunedL5,
		MarkovSeconds:     st.MarkovPrune.Seconds(),
		MonteCarloSeconds: st.MonteCarlo.Seconds(),
		PointPairsChecked: st.PointPairsChecked,
		PointPairsPruned:  st.PointPairsPruned,
		NodePairsVisited:  st.NodePairsVisited,
		NodePairsPruned:   st.NodePairsPruned,
		CacheHits:         st.CacheHits,
		CacheMisses:       st.CacheMisses,
	}
}
