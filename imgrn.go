package imgrn

import (
	"context"
	"errors"
	"io"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/grnclust"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/obs"
	"github.com/imgrn/imgrn/internal/plan"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/shard"
	"github.com/imgrn/imgrn/internal/subiso"
	"github.com/imgrn/imgrn/internal/vecmath"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// GeneID identifies a gene across data sources.
	GeneID = gene.ID
	// Matrix is one gene feature matrix M_i (genes × individuals).
	Matrix = gene.Matrix
	// Database is a gene feature database D of N matrices.
	Database = gene.Database
	// Catalog maps gene names to IDs.
	Catalog = gene.Catalog
	// Graph is a probabilistic GRN.
	Graph = grn.Graph
	// Edge is a probabilistic GRN edge.
	Edge = grn.Edge
	// Scorer is a pluggable gene-interaction measure.
	Scorer = grn.Scorer
	// IndexOptions configures index construction.
	IndexOptions = index.Options
	// QueryParams carries the per-query thresholds (γ, α of Definition 4),
	// the estimator settings (Samples, Seed, Analytic, OneSided), the
	// requested accuracy (Eps, Delta — the plan then picks the Lemma-2
	// sample count R = SampleSize(Eps, Delta) instead of Samples), the
	// intra-query worker budget (Workers), the optional per-query trace
	// collector (Trace, see NewQueryTrace), and an optional pinned
	// execution plan (Plan; nil resolves the fixed default plan, see
	// QueryPlan).
	QueryParams = core.Params
	// Answer is one IM-GRN query result: a matching data source with its
	// appearance probability and the matched probabilistic edges.
	Answer = core.Answer
	// QueryStats reports the per-query cost metrics of the paper's
	// Section 6 plus the engine's own accounting: wall-clock stage
	// durations (InferQuery, Traversal, Refinement, Total) and the
	// aggregate refinement sub-stage durations (MarkovPrune, MonteCarlo),
	// simulated page I/O (IOCost distinct pages accessed, IOHits repeat
	// touches of them),
	// pruning-power counters (NodePairsVisited/Pruned,
	// PointPairsChecked/Pruned, CandidateGenes, CandidateMatrices,
	// MatricesPrunedL5), edge-probability cache effectiveness
	// (CacheHits, CacheMisses), the Monte Carlo permutations refinement
	// drew (Draws), the query graph shape
	// (QueryVertices, QueryEdges), and the execution plan the query ran
	// under (Plan — never nil on a completed query).
	QueryStats = core.Stats
	// QueryPlan is one query's resolved execution plan: the Monte Carlo
	// sample count R (possibly derived from a requested (ε, δ) via the
	// Lemma-2 bound) and the prune-stage switches. Plans are immutable
	// once resolved and shared across shards; read the plan a query ran
	// under from QueryStats.Plan, or pin one via QueryParams.Plan.
	QueryPlan = plan.Plan
	// Planner builds adaptive query plans by evaluating the paper's §4
	// cost model online from observed stage statistics; feed it each
	// query's QueryStats.PlanFeedback() and install its Plan output on
	// QueryParams.Plan (the HTTP server automates this loop, see
	// internal/server.Server.Planner).
	Planner = plan.Planner
	// PlannerOptions tunes the adaptive Planner (warm-up query count,
	// skip margins, EWMA decay); the zero value takes the documented
	// defaults.
	PlannerOptions = plan.Options
	// PlanRequest describes one query to the planner: the fixed stage
	// set to start from, a requested accuracy (Eps, Delta) or sample
	// count, and the optional shape hints the cost model consults
	// (QueryGenes, CacheEntries, DBVectors, MeanPivotCost — zero means
	// unknown).
	PlanRequest = plan.Request
	// PlanFeedback is one finished query's realized stage statistics;
	// build it with QueryStats.PlanFeedback and fold it into the cost
	// model with Planner.Observe.
	PlanFeedback = plan.Feedback
	// QueryTrace collects per-stage spans (durations plus candidate
	// in/out counts) of one query; attach one via QueryParams.Trace and
	// read the spans back with Spans or Summary after the query returns.
	// A QueryTrace must not be reused across queries.
	QueryTrace = obs.Tracer
	// TraceSpan is one recorded pipeline stage of a traced query.
	TraceSpan = obs.Span
	// SubgraphMatch is one embedding found by MatchSubgraph.
	SubgraphMatch = subiso.Match
	// BatchItem is one query of a QueryBatch call: a query matrix (or a
	// pre-inferred query graph), its own QueryParams, and an optional
	// per-item top-k cutoff.
	BatchItem = core.BatchItem
	// BatchResult is one batch item's outcome: answers, stats, and the
	// item's own error (items fail independently).
	BatchResult = core.BatchResult
	// BatchOptions tunes one QueryBatch call: the per-item timeout and
	// the streaming result callback.
	BatchOptions = core.BatchOptions
	// BatchStats aggregates batch-level counters: items submitted and
	// items failed.
	BatchStats = core.BatchStats
)

// NewQueryTrace starts a per-query trace collector. Tracing observes the
// pipeline without perturbing it: answers and RNG streams are identical
// with tracing on or off.
func NewQueryTrace() *QueryTrace { return obs.NewTracer() }

// NewPlanner returns an adaptive query planner (see Planner). The zero
// PlannerOptions value takes the documented defaults: plans stay fixed
// until 32 queries have been observed, and a stage is only skipped when
// the cost model says it costs at least twice what it saves.
func NewPlanner(opts PlannerOptions) *Planner { return plan.NewPlanner(opts) }

// WildcardGene is a query vertex label that matches any gene in
// MatchSubgraph.
const WildcardGene = subiso.Wildcard

// NewDatabase returns an empty gene feature database.
func NewDatabase() *Database { return gene.NewDatabase() }

// NewMatrix builds a feature matrix from per-gene column vectors; genes[j]
// labels cols[j] and all columns must have equal length (the number of
// individuals sampled).
func NewMatrix(source int, genes []GeneID, cols [][]float64) (*Matrix, error) {
	return gene.NewMatrix(source, genes, cols)
}

// NewCatalog returns an empty gene-name catalog.
func NewCatalog() *Catalog { return gene.NewCatalog() }

// NewGraph returns a probabilistic GRN with the given vertex labels and no
// edges; use SetEdge to add probabilistic interactions.
func NewGraph(genes []GeneID) *Graph { return grn.NewGraph(genes) }

// SaveDatabase / LoadDatabase persist databases in the binary IMGRNDB1
// format.
var (
	SaveDatabase = gene.SaveDatabase
	LoadDatabase = gene.LoadDatabase
)

// Engine couples a database with its IM-GRN index and answers queries.
// Methods are safe for concurrent use. Queries run concurrently: each
// query gets its own execution context (a private page-access accountant
// view plus an optional intra-query worker pool, see QueryParams.Workers)
// and takes only per-shard read locks, so many queries proceed in
// parallel. Mutations (AddMatrix, RemoveMatrix) write-lock only the shard
// their source is placed on. Exact edge-probability estimates are
// memoized across queries with identical estimator settings in
// lock-striped per-shard caches; each shard keeps the caches of the most
// recently used estimator settings only (core.CacheTable).
//
// Every engine partitions its database across NumShards independent index
// shards — one for Open and OpenSaved — and runs every query
// scatter-gather (see internal/shard and DESIGN.md §10). Answers are a
// function of the database and the QueryParams alone: byte-identical at
// every shard count. Per-shard counters are available via ShardStats.
type Engine struct {
	// coord answers every call. A durable coordinator (OpenDurable)
	// write-ahead logs and fsyncs mutations before acknowledging them and
	// rotates the log into snapshots on Checkpoint/Close; queries run the
	// same way on both.
	coord *shard.Coordinator
}

// Open builds the IM-GRN index over db and returns a query engine: a
// one-shard OpenSharded. Construction embeds every gene vector via
// cost-model-selected pivots and bulk-loads the R*-tree; it is the offline
// step of the system.
func Open(db *Database, opts IndexOptions) (*Engine, error) {
	return OpenSharded(db, opts, 1)
}

// OpenSharded builds an engine whose database is partitioned round-robin
// across numShards independent index shards (1 when <= 1), each with its
// own R*-tree, page accountant and probability caches; queries run
// scatter-gather over the shards and mutations lock only the shard their
// source is placed on. Every shard runs the caller's QueryParams, and
// every Monte Carlo draw is addressed by its work unit — (Seed, column) in
// query inference, (Seed, source, column pair) in refinement — so answers
// are a function of (database, params), not of placement: any numShards
// answers byte-identically to Open, under both estimators.
func OpenSharded(db *Database, opts IndexOptions, numShards int) (*Engine, error) {
	coord, err := shard.Build(db, shard.Options{NumShards: numShards, Index: opts})
	if err != nil {
		return nil, err
	}
	return &Engine{coord: coord}, nil
}

// DurableOptions configures a durable engine's data directory and
// checkpoint policy (see OpenDurable).
type DurableOptions = shard.DurableOptions

// DurableStats reports a durable engine's boot provenance (warm or cold,
// records replayed, torn bytes truncated) and its WAL/checkpoint
// counters.
type DurableStats = shard.DurableStats

// OpenDurable opens a durable sharded engine rooted at dopts.Dir
// (DESIGN.md §12). When the directory holds committed state the engine
// warm-boots — per-shard snapshots are loaded, skipping the Monte Carlo
// embedding, and the write-ahead log is replayed over them — and db is
// ignored (it may be nil). Otherwise the engine is built from db like
// OpenSharded and immediately checkpointed, so the state is durable
// before OpenDurable returns.
//
// Every AddMatrix/RemoveMatrix on a durable engine is applied, appended
// to its shard's WAL and fsynced before the call returns: a mutation
// that returned nil survives kill -9. The log is folded into fresh
// snapshots when it exceeds DurableOptions.CheckpointBytes, on the
// optional CheckpointEvery timer, on Checkpoint, and on Close.
func OpenDurable(db *Database, opts IndexOptions, numShards int, dopts DurableOptions) (*Engine, error) {
	coord, err := shard.OpenDurable(db, shard.Options{NumShards: numShards, Index: opts}, dopts)
	if err != nil {
		return nil, err
	}
	return &Engine{coord: coord}, nil
}

// Durable reports whether the engine was opened with OpenDurable.
func (e *Engine) Durable() bool { return e.coord.Durable() }

// DurableStats reports the durable engine's counters; the zero value for
// a non-durable engine.
func (e *Engine) DurableStats() DurableStats { return e.coord.DurableStats() }

// Checkpoint forces a durable engine to fold its write-ahead log into a
// new snapshot generation now. No-op (nil) on a non-durable engine.
func (e *Engine) Checkpoint() error { return e.coord.Checkpoint() }

// Close releases the engine. A durable engine checkpoints outstanding
// mutations first (so the next boot replays nothing) and closes its log
// segments; a non-durable engine's Close is a no-op. The engine is
// unusable for mutations afterwards.
func (e *Engine) Close() error { return e.coord.Close() }

// NumShards reports the engine's shard count.
func (e *Engine) NumShards() int { return e.coord.NumShards() }

// ShardInfo is one shard's observability snapshot: partition size,
// operation counts, and lifetime I/O and cache counters.
type ShardInfo = shard.ShardInfo

// ShardStats reports per-shard counters in shard order.
func (e *Engine) ShardStats() []ShardInfo { return e.coord.Snapshot() }

// OpenSaved reconstructs a one-shard engine from an index previously
// written with SaveIndex, skipping the expensive Monte Carlo embedding
// phase. db must be the database the index was built over.
func OpenSaved(r io.Reader, db *Database) (*Engine, error) {
	idx, err := index.Load(r, db)
	if err != nil {
		return nil, err
	}
	return &Engine{coord: shard.FromIndex(idx)}, nil
}

// SaveIndex serializes a one-shard engine's index so a later process can
// OpenSaved it without re-embedding the database. Engines of more shards
// cannot be saved yet: rebuild with OpenSharded at startup (per-shard
// indexes rebuild in parallel).
func (e *Engine) SaveIndex(w io.Writer) error { return e.coord.SaveIndex(w) }

// Database returns the indexed database.
func (e *Engine) Database() *Database { return e.coord.Database() }

// IndexStats reports construction statistics (vectors, nodes, pages,
// build time), aggregated across shards.
func (e *Engine) IndexStats() index.BuildStats { return e.coord.IndexStats() }

// Query answers an IM-GRN query: it infers the query GRN from mq at
// params.Gamma and returns every database matrix whose inferred GRN
// contains it with probability above params.Alpha.
func (e *Engine) Query(mq *Matrix, params QueryParams) ([]Answer, QueryStats, error) {
	return e.QueryContext(context.Background(), mq, params)
}

// QueryContext is Query under an explicit context: the query honors ctx
// cancellation and deadlines at traversal and refinement loop boundaries
// (returning ctx.Err()), and params.Workers > 1 parallelizes candidate
// refinement and Monte Carlo query inference within the query. Concurrent
// QueryContext calls proceed in parallel, each with its own page-access
// accounting.
func (e *Engine) QueryContext(ctx context.Context, mq *Matrix, params QueryParams) ([]Answer, QueryStats, error) {
	if mq == nil {
		return nil, QueryStats{}, errNilQuery
	}
	return e.coord.QueryContext(ctx, mq, params)
}

// QueryGraph answers an IM-GRN query for an already-constructed query GRN
// (e.g. a hand-curated biomarker pattern).
func (e *Engine) QueryGraph(q *Graph, params QueryParams) ([]Answer, QueryStats, error) {
	return e.QueryGraphContext(context.Background(), q, params)
}

// QueryGraphContext is QueryGraph under an explicit context; see
// QueryContext for the context and concurrency semantics.
func (e *Engine) QueryGraphContext(ctx context.Context, q *Graph, params QueryParams) ([]Answer, QueryStats, error) {
	if q == nil {
		return nil, QueryStats{}, errNilQuery
	}
	return e.coord.QueryGraphContext(ctx, q, params)
}

// AddMatrix indexes a new data source online. The matrix becomes
// immediately queryable, and the grown engine answers exactly like one
// rebuilt from scratch over the enlarged database.
func (e *Engine) AddMatrix(m *Matrix) error { return e.coord.AddMatrix(m) }

// RemoveMatrix drops a data source from the engine and its database.
func (e *Engine) RemoveMatrix(source int) error { return e.coord.RemoveMatrix(source) }

// QueryTopK answers an IM-GRN query and returns only the k matches with
// the highest appearance probability (ties break toward smaller source
// IDs). k <= 0 returns all matches ranked.
func (e *Engine) QueryTopK(mq *Matrix, params QueryParams, k int) ([]Answer, QueryStats, error) {
	return e.QueryTopKContext(context.Background(), mq, params, k)
}

// QueryTopKContext is QueryTopK under an explicit context; see
// QueryContext for the context and concurrency semantics.
func (e *Engine) QueryTopKContext(ctx context.Context, mq *Matrix, params QueryParams, k int) ([]Answer, QueryStats, error) {
	if mq == nil {
		return nil, QueryStats{}, errNilQuery
	}
	// Top-k streams per-shard answers into a bounded merge with
	// cross-shard Markov-bound early termination (internal/shard).
	return e.coord.QueryTopKContext(ctx, mq, params, k)
}

// QueryBatch answers a batch of queries in one engine call (DESIGN.md
// §14): plans resolve once per distinct request group, a sharded engine
// scatters the whole batch once, and every item then runs the ordinary
// query pipeline. It returns one result per item in item order;
// opts.OnResult streams each item as it completes. Item errors are
// reported per item, never as a batch failure.
//
// The results are byte-identical to calling Query for each item
// sequentially on this engine.
func (e *Engine) QueryBatch(items []BatchItem, opts BatchOptions) ([]BatchResult, BatchStats) {
	return e.QueryBatchContext(context.Background(), items, opts)
}

// QueryBatchContext is QueryBatch under an explicit context: cancelling
// ctx aborts the remaining items (each reporting the context error), and
// opts.ItemTimeout gives every item one timeout window of its own.
func (e *Engine) QueryBatchContext(ctx context.Context, items []BatchItem, opts BatchOptions) ([]BatchResult, BatchStats) {
	return e.coord.QueryBatch(ctx, items, opts)
}

// errNilQuery rejects nil query inputs at the public boundary.
var errNilQuery = errors.New("imgrn: nil query")

// InferGraph reconstructs the probabilistic GRN of a matrix at inference
// threshold gamma with the paper's randomized measure.
func (e *Engine) InferGraph(m *Matrix, params QueryParams) (*Graph, error) {
	if m == nil {
		return nil, errNilQuery
	}
	q, _, err := core.InferQuery(context.Background(), m, params)
	return q, err
}

// InferGraph reconstructs a probabilistic GRN from a matrix without an
// engine, using the given scorer and threshold — the standalone inference
// entry point (Definition 2/3).
func InferGraph(m *Matrix, sc Scorer, gamma float64) (*Graph, error) {
	return grn.Infer(m, sc, gamma)
}

// Scorers for InferGraph. RandomizedScorer is the paper's IM-GRN measure;
// CorrelationScorer, PartialCorrScorer and MutualInfoScorer are the
// comparison measures.
func NewRandomizedScorer(seed uint64, samples int) Scorer {
	return grn.NewRandomizedScorer(seed, samples)
}

// NewCorrelationScorer returns the absolute-Pearson relevance-network
// measure.
func NewCorrelationScorer() Scorer { return grn.CorrelationScorer{} }

// NewAnalyticScorer returns the fast normal-approximation variant of the
// IM-GRN measure.
func NewAnalyticScorer() Scorer { return grn.AnalyticScorer{} }

// NewPartialCorrScorer returns the partial-correlation (pCorr) measure
// with the given ridge regularization.
func NewPartialCorrScorer(ridge float64) Scorer {
	return &grn.PartialCorrScorer{Ridge: ridge}
}

// NewMutualInfoScorer returns the mutual-information measure with the
// given histogram bin count (0 = automatic).
func NewMutualInfoScorer(bins int) Scorer { return &grn.MutualInfoScorer{Bins: bins} }

// VectorScore is a raw pairwise association measure over feature vectors,
// used with NewCalibratedScorer.
type VectorScore = grn.VectorScore

// Raw measures for NewCalibratedScorer: absolute Pearson (reproduces the
// paper's Definition-2 measure), absolute Spearman rank correlation, and
// histogram mutual information.
var (
	AbsPearsonVec = grn.AbsPearsonVec
	SpearmanVec   = grn.SpearmanVec
	MutualInfoVec = grn.MutualInfoVec
)

// NewCalibratedScorer generalizes the paper's randomization idea to any
// association measure: the returned scorer reports the probability that
// the observed raw score beats the score against a permuted partner
// vector (the future-work direction of Section 2.2).
func NewCalibratedScorer(label string, fn VectorScore, seed uint64, samples int) Scorer {
	return grn.NewCalibratedScorer(label, fn, seed, samples)
}

// Clustering (the Example-2 workflow): group data sources by the
// similarity of their inferred regulatory structures.
type (
	// ClusterOptions tunes the GRN distance (scorer, threshold, panel cap).
	ClusterOptions = grnclust.Options
	// ClusterResult is a clustering assignment with representatives.
	ClusterResult = grnclust.Result
	// DistanceMatrix is a dense symmetric source-by-source distance
	// matrix; index it with At(i, j).
	DistanceMatrix = vecmath.Matrix
)

// GRNDistanceMatrix computes pairwise regulatory-structure distances
// between all database matrices.
func GRNDistanceMatrix(db *Database, opts ClusterOptions) (*DistanceMatrix, error) {
	return grnclust.DistanceMatrix(db, opts)
}

// GRNDistance is the pairwise form of GRNDistanceMatrix.
func GRNDistance(a, b *Matrix, opts ClusterOptions) (float64, error) {
	return grnclust.Distance(a, b, opts)
}

// ClusterKMedoids clusters the distance matrix into k groups with
// PAM-style k-medoids; the medoid matrices are natural IM-GRN query
// patterns for their clusters.
func ClusterKMedoids(dm *DistanceMatrix, k, restarts int, seed uint64) (ClusterResult, error) {
	return grnclust.KMedoids(dm, k, restarts, randgen.New(seed))
}

// ClusterAgglomerative cuts an average-linkage dendrogram at k clusters.
func ClusterAgglomerative(dm *DistanceMatrix, k int) (ClusterResult, error) {
	return grnclust.Agglomerative(dm, k)
}

// ClusterPurity scores a clustering against ground-truth labels.
func ClusterPurity(assign, labels []int) float64 { return grnclust.Purity(assign, labels) }

// MatchSubgraph finds embeddings of query q in data graph g whose
// appearance probability exceeds alpha — general label-constrained
// probabilistic subgraph isomorphism over materialized GRNs, supporting
// duplicate labels and WildcardGene.
func MatchSubgraph(q, g *Graph, alpha float64) []SubgraphMatch {
	return subiso.Find(q, g, subiso.Options{Alpha: alpha})
}
