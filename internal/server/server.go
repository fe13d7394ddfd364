// Package server exposes an IM-GRN query engine over HTTP with a JSON
// API — the prototype-system interface sketched in the paper's
// conclusion: clients submit gene feature samples or a hand-drawn query
// GRN plus ad-hoc thresholds, and receive the matching data sources with
// confidences and cost statistics.
//
// Requests are served concurrently: every query builds its own processor
// with a per-query execution context (private page-access accounting, see
// internal/exec), so no handler serializes behind another. QueryTimeout
// bounds each query's wall-clock time through context cancellation, and
// MaxConcurrent sheds load with 503 when too many queries are in flight.
//
// The server is fully observable: every query runs under an obs.Tracer,
// its per-stage spans and Stats feed the Metrics registry exposed at
// /metrics in the Prometheus text format (latency and per-stage duration
// histograms, pruning-power counters, cache and page-I/O accounting,
// in-flight/shed gauges — see the DESIGN.md metric catalog), queries
// slower than SlowQueryThreshold are logged with their stage breakdown,
// and runtime profiling is available under /debug/pprof/ when
// EnablePprof is set. Requests may opt into a per-request trace summary
// in the JSON response with "trace": true in their params.
//
// The server runs over a shard.Coordinator: one shard wrapping a single
// index in the default deployment (New), or P independent index shards
// queried scatter-gather (NewSharded). Sharded servers surface per-shard
// counters in /stats (the "shards" array) and /metrics (the imgrn_shard_*
// gauge families, refreshed on scrape). Mutations — POST /add-matrix and
// /remove-matrix — route to the shard their source is placed on and
// invalidate only that source's cached edge probabilities.
//
// Endpoints:
//
//	GET  /healthz        liveness probe
//	GET  /stats          database, index and per-shard statistics
//	GET  /metrics        Prometheus text exposition of the Metrics registry
//	GET  /debug/pprof/   net/http/pprof handlers (404 unless EnablePprof)
//	POST /query          IM-GRN query from a feature matrix
//	POST /query-graph    IM-GRN query from an explicit probabilistic pattern
//	POST /query-batch    many queries in one engine batch, streamed as NDJSON
//	POST /cluster        cluster the data sources by regulatory structure
//	POST /add-matrix     index a new data source online
//	POST /remove-matrix  drop a data source
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"github.com/imgrn/imgrn/internal/cluster"
	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/grnclust"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/obs"
	"github.com/imgrn/imgrn/internal/plan"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/shard"
)

// Engine is the query/mutation surface the HTTP handlers run over. Three
// implementations serve it: the in-process shard.Coordinator (New,
// NewSharded, NewDurable), the same coordinator under a durable store,
// and the remote cluster.Coordinator (NewCluster) that scatter-gathers
// to networked shard servers — the handlers cannot tell them apart,
// which is the deployment-transparency seam of DESIGN.md §15. Both
// coordinators implement the three solo entry points as one-item
// QueryBatch calls, so QueryBatch is the one execution path behind this
// interface; Stats.Answers is the number of answers returned on all four.
type Engine interface {
	QueryContext(ctx context.Context, mq *gene.Matrix, params core.Params) ([]core.Answer, core.Stats, error)
	QueryGraphContext(ctx context.Context, q *grn.Graph, params core.Params) ([]core.Answer, core.Stats, error)
	QueryTopKContext(ctx context.Context, mq *gene.Matrix, params core.Params, k int) ([]core.Answer, core.Stats, error)
	QueryBatch(ctx context.Context, items []core.BatchItem, opts core.BatchOptions) ([]core.BatchResult, core.BatchStats)
	AddMatrix(m *gene.Matrix) error
	RemoveMatrix(source int) error
	// NumShards is the GLOBAL shard count; Placement the global shard a
	// source is (or would be) placed on; Matrices the indexed source
	// count (cluster engines count each shard once, not per replica).
	NumShards() int
	Placement(source int) (int, bool)
	Matrices() int
}

// Server handles IM-GRN HTTP requests over an Engine: an in-process
// shard coordinator (a single shard for New, P shards for NewSharded, a
// durable store for NewDurable) or a remote cluster coordinator
// (NewCluster). Handlers are safe for concurrent use; queries do not
// serialize against each other because each runs on its own execution
// context, and a mutation locks only the shard its source is placed on.
type Server struct {
	eng Engine
	// coord is the in-process coordinator behind eng, nil on
	// coordinator-mode servers (NewCluster); the handlers that need
	// engine INTERNALS — index build stats, the raw database, per-shard
	// snapshots — guard on it.
	coord *shard.Coordinator
	// store, when non-nil (NewDurable), wraps coord with the durable
	// lifecycle: mutations route through it so they are write-ahead
	// logged and fsynced before the response is sent.
	store *shard.Store
	// remote is the cluster coordinator behind eng on NewCluster servers.
	remote *cluster.Coordinator
	// role marks a shard-role server (NewShardServer): the /cluster/*
	// execution endpoints are mounted and floors tracks live top-k sinks.
	role   *ShardRole
	floors floorRegistry
	cat    *gene.Catalog
	mux    *http.ServeMux

	// MaxBodyBytes bounds request bodies (default 32 MiB).
	MaxBodyBytes int64

	// QueryTimeout bounds the wall-clock time of one query or clustering
	// request (default 30s; <= 0 disables the bound). A request past its
	// deadline is abandoned at the next traversal/refinement loop boundary
	// and answered with 503.
	QueryTimeout time.Duration

	// MaxConcurrent bounds the number of in-flight query/cluster requests
	// (default 0 = unbounded). Excess requests are rejected immediately
	// with 503 rather than queued.
	MaxConcurrent int

	// MaxBatchItems bounds the number of queries one /query-batch request
	// may carry (default 256 when 0). Oversized batches are answered with
	// 400 before any work runs.
	MaxBatchItems int

	// Workers is the intra-query parallelism passed to every query's
	// params (see core.Params.Workers). 0 runs every work unit of a query
	// inline; answers are the same at every value.
	Workers int

	// Planner, when non-nil, plans every query adaptively: each request's
	// plan is built by the cost-model Planner (fed the coordinator's cache
	// density and §4 pivot-cost figures) and installed on the params
	// before the query runs, and every finished query's stage statistics
	// are folded back into the model. Nil (the default) keeps the fixed
	// default plan — byte-identical to the pre-planner pipeline. Set it
	// before serving; the Planner itself is safe for concurrent use.
	Planner *plan.Planner

	// Metrics is the registry served at /metrics. New installs a fresh
	// registry with the full imgrn_* metric catalog (see DESIGN.md).
	Metrics *obs.Registry

	// EnablePprof exposes the net/http/pprof handlers under
	// /debug/pprof/; the routes answer 404 while it is false. Set it
	// before serving.
	EnablePprof bool

	// SlowQueryThreshold logs queries whose total wall-clock time meets
	// or exceeds it to SlowQueryLog, with their per-stage breakdown
	// (0 disables the slow-query log).
	SlowQueryThreshold time.Duration

	// SlowQueryLog receives slow-query lines (log.Default() when nil).
	SlowQueryLog *log.Logger

	met serverMetrics

	semOnce sync.Once
	sem     chan struct{}
}

// serverMetrics bundles the registry instruments the handlers record
// into; initMetrics registers them all eagerly so every family appears
// in /metrics from the first scrape, before any query has run.
type serverMetrics struct {
	requests     obs.CounterVec // by endpoint
	errors       obs.CounterVec // by HTTP status code
	latency      *obs.Histogram
	stage        obs.HistogramVec // by pipeline stage
	candFiltered *obs.Counter
	candRefined  *obs.Counter
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	pageAccesses *obs.Counter
	bufferHits   *obs.Counter
	readerPages  *obs.Gauge
	inFlight     *obs.Gauge
	shed         *obs.Counter
	slow         *obs.Counter
	mutations    obs.CounterVec // by op (add, remove)

	// Batch family: /query-batch request/item accounting (DESIGN.md §14).
	batchRequests *obs.Counter
	batchQueries  *obs.Counter
	batchSize     *obs.Histogram
	batchItemErrs *obs.Counter

	// Plan decision family: per-query plan modes and stage-skip decisions,
	// the chosen sample count, and the planner's modeled per-candidate
	// stage costs (realized EWMA, in nanoseconds — the registry gauges are
	// integer-valued).
	planQueries   obs.CounterVec // by mode (fixed, adaptive)
	planSkips     obs.CounterVec // by skipped stage
	planSamples   *obs.Gauge
	planStageCost obs.GaugeVec // by stage (markov_prune, monte_carlo)

	// Per-shard gauge families, one series per shard, refreshed from the
	// coordinator snapshot on every /metrics scrape.
	shardSources     obs.GaugeVec
	shardQueries     obs.GaugeVec
	shardMutations   obs.GaugeVec
	shardIOPages     obs.GaugeVec
	shardIOHits      obs.GaugeVec
	shardCacheSize   obs.GaugeVec
	shardCacheHits   obs.GaugeVec
	shardCacheMisses obs.GaugeVec

	// durable is populated (initDurable) only on NewDurable servers: the
	// imgrn_wal_* / imgrn_snapshot_* families, refreshed per scrape.
	durable durableMetrics
}

func (m *serverMetrics) init(r *obs.Registry) {
	m.requests = r.CounterVec("imgrn_requests_total",
		"Requests served, by endpoint.", "endpoint")
	m.errors = r.CounterVec("imgrn_request_errors_total",
		"Error responses, by HTTP status code.", "code")
	m.latency = r.Histogram("imgrn_query_seconds",
		"End-to-end query latency in seconds.", nil)
	m.stage = r.HistogramVec("imgrn_stage_seconds",
		"Per-stage query pipeline durations in seconds (markov_prune and monte_carlo are aggregate CPU time across candidates).",
		"stage", nil)
	m.candFiltered = r.Counter("imgrn_candidates_filtered_total",
		"Candidates removed by the pruning layers (node pairs, point pairs, Lemma-5 matrices).")
	m.candRefined = r.Counter("imgrn_candidates_refined_total",
		"Candidate matrices that reached exact Monte Carlo verification.")
	m.cacheHits = r.Counter("imgrn_edgeprob_cache_hits_total",
		"Edge-probability cache hits during refinement.")
	m.cacheMisses = r.Counter("imgrn_edgeprob_cache_misses_total",
		"Edge-probability cache misses during refinement.")
	m.pageAccesses = r.Counter("imgrn_reader_page_accesses_total",
		"Simulated disk page accesses charged to per-query readers.")
	m.bufferHits = r.Counter("imgrn_reader_buffer_hits_total",
		"Page touches absorbed by per-query buffer pools.")
	m.readerPages = r.Gauge("imgrn_reader_pages",
		"Page accesses of the most recently completed query.")
	m.inFlight = r.Gauge("imgrn_requests_in_flight",
		"Query/cluster requests currently executing.")
	m.shed = r.Counter("imgrn_requests_shed_total",
		"Requests rejected with 503 because the server was at MaxConcurrent.")
	m.slow = r.Counter("imgrn_slow_queries_total",
		"Queries that exceeded SlowQueryThreshold.")
	m.mutations = r.CounterVec("imgrn_mutations_total",
		"Database mutations served, by operation (add, remove).", "op")
	m.batchRequests = r.Counter("imgrn_batch_requests_total",
		"Batch requests served by /query-batch (each may carry many queries).")
	m.batchQueries = r.Counter("imgrn_batch_queries_total",
		"Queries carried by /query-batch requests.")
	m.batchSize = r.Histogram("imgrn_batch_size",
		"Queries per /query-batch request.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	m.batchItemErrs = r.Counter("imgrn_batch_item_errors_total",
		"Batch items answered with an error frame (the batch itself succeeded).")
	m.planQueries = r.CounterVec("imgrn_plan_queries_total",
		"Queries served, by plan mode (fixed = the default pipeline, adaptive = at least one cost-model decision departed from it).", "mode")
	m.planSkips = r.CounterVec("imgrn_plan_skips_total",
		"Plan decisions that skipped a pipeline stage, by stage.", "stage")
	m.planSamples = r.Gauge("imgrn_plan_samples",
		"Monte Carlo sample count R chosen by the most recent query's plan.")
	m.planStageCost = r.GaugeVec("imgrn_plan_stage_cost_nanos",
		"Planner cost model: modeled per-candidate stage cost in nanoseconds (EWMA of realized costs).", "stage")
	m.shardSources = r.GaugeVec("imgrn_shard_sources",
		"Data sources placed on each shard.", "shard")
	m.shardQueries = r.GaugeVec("imgrn_shard_queries",
		"Queries served by each shard since start.", "shard")
	m.shardMutations = r.GaugeVec("imgrn_shard_mutations",
		"Mutations routed to each shard since start.", "shard")
	m.shardIOPages = r.GaugeVec("imgrn_shard_io_pages",
		"Simulated page accesses charged against each shard's index.", "shard")
	m.shardIOHits = r.GaugeVec("imgrn_shard_io_buffer_hits",
		"Page touches absorbed by per-query buffer pools, per shard.", "shard")
	m.shardCacheSize = r.GaugeVec("imgrn_shard_cache_entries",
		"Memoized edge probabilities held by each shard's caches.", "shard")
	m.shardCacheHits = r.GaugeVec("imgrn_shard_cache_hits",
		"Edge-probability cache hits on each shard since start.", "shard")
	m.shardCacheMisses = r.GaugeVec("imgrn_shard_cache_misses",
		"Edge-probability cache misses on each shard since start.", "shard")
	// Pre-create the per-stage series so the family is complete (all
	// zero) on the first scrape.
	for _, name := range obs.StageNames() {
		m.stage.With(name)
	}
	for _, ep := range []string{"query", "query-graph", "query-batch", "cluster", "add-matrix", "remove-matrix"} {
		m.requests.With(ep)
	}
	for _, op := range []string{"add", "remove"} {
		m.mutations.With(op)
	}
	for _, mode := range []string{"fixed", "adaptive"} {
		m.planQueries.With(mode)
	}
	for _, stage := range []string{"pivot_prune", "signature", "markov_prune", "batch_kernel"} {
		m.planSkips.With(stage)
	}
	for _, stage := range []string{"markov_prune", "monte_carlo"} {
		m.planStageCost.With(stage)
	}
}

// observeShards refreshes the per-shard gauge families from a coordinator
// snapshot; called on every /metrics scrape so the series track the
// coordinator's lifetime counters.
func (m *serverMetrics) observeShards(infos []shard.ShardInfo) {
	for _, info := range infos {
		label := strconv.Itoa(info.Shard)
		m.shardSources.With(label).Set(int64(info.Sources))
		m.shardQueries.With(label).Set(int64(info.Queries))
		m.shardMutations.With(label).Set(int64(info.Mutations))
		m.shardIOPages.With(label).Set(int64(info.IOCost))
		m.shardIOHits.With(label).Set(int64(info.IOHits))
		m.shardCacheSize.With(label).Set(int64(info.CacheEntries))
		m.shardCacheHits.With(label).Set(int64(info.CacheHits))
		m.shardCacheMisses.With(label).Set(int64(info.CacheMisses))
	}
}

// New returns a server over idx, wrapped as a single-shard coordinator.
// cat translates gene names in requests; a nil catalog restricts requests
// to numeric gene IDs.
func New(idx *index.Index, cat *gene.Catalog) *Server {
	return NewSharded(shard.FromIndex(idx), cat)
}

// NewSharded returns a server over an already-built shard coordinator;
// queries run scatter-gather across its shards and /stats and /metrics
// carry per-shard counters.
func NewSharded(coord *shard.Coordinator, cat *gene.Catalog) *Server {
	s := newBase(cat)
	s.eng, s.coord = coord, coord
	return s
}

// newBase builds the engine-agnostic server shell: config defaults, the
// metrics registry with the full catalog, and the public routes. The
// caller wires the engine (and any role-specific routes) afterwards.
func newBase(cat *gene.Catalog) *Server {
	s := &Server{cat: cat, MaxBodyBytes: 32 << 20, QueryTimeout: 30 * time.Second}
	s.Metrics = obs.NewRegistry()
	s.met.init(s.Metrics)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/query-graph", s.handleQueryGraph)
	mux.HandleFunc("/query-batch", s.handleQueryBatch)
	mux.HandleFunc("/cluster", s.handleCluster)
	mux.HandleFunc("/add-matrix", s.handleAddMatrix)
	mux.HandleFunc("/remove-matrix", s.handleRemoveMatrix)
	mux.HandleFunc("/debug/pprof/", s.gatePprof(pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", s.gatePprof(pprof.Cmdline))
	mux.HandleFunc("/debug/pprof/profile", s.gatePprof(pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", s.gatePprof(pprof.Symbol))
	mux.HandleFunc("/debug/pprof/trace", s.gatePprof(pprof.Trace))
	s.mux = mux
	return s
}

// gatePprof wraps a net/http/pprof handler so profiling is only
// reachable when EnablePprof is set.
func (s *Server) gatePprof(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.EnablePprof {
			http.NotFound(w, r)
			return
		}
		h(w, r)
	}
}

// handleMetrics serves the registry in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.error(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.coord != nil {
		s.met.observeShards(s.coord.Snapshot())
	}
	if s.remote != nil {
		// Keep the membership gauges fresh even between health-probe
		// ticks: a scrape is a natural staleness bound.
		s.remote.RefreshHealth(r.Context())
	}
	if s.store != nil {
		s.met.observeDurable(s.store.DurableStats())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.Metrics.WritePrometheus(w)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// acquire claims an execution slot, reporting false (and answering 503)
// when the server is at MaxConcurrent in-flight requests. The returned
// release func must be called when the request finishes. The in-flight
// gauge tracks held slots; shed requests increment the shed counter.
func (s *Server) acquire(w http.ResponseWriter) (release func(), ok bool) {
	s.semOnce.Do(func() {
		if s.MaxConcurrent > 0 {
			s.sem = make(chan struct{}, s.MaxConcurrent)
		}
	})
	if s.sem == nil {
		s.met.inFlight.Inc()
		return func() { s.met.inFlight.Dec() }, true
	}
	select {
	case s.sem <- struct{}{}:
		s.met.inFlight.Inc()
		return func() { s.met.inFlight.Dec(); <-s.sem }, true
	default:
		s.met.shed.Inc()
		s.error(w, http.StatusServiceUnavailable, "server at capacity")
		return nil, false
	}
}

// queryContext derives the per-request context: the client's (cancelled
// when the connection drops) bounded by QueryTimeout.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.QueryTimeout > 0 {
		return context.WithTimeout(r.Context(), s.QueryTimeout)
	}
	return context.WithCancel(r.Context())
}

// queryError maps a query error to an HTTP status: deadline and
// cancellation become 503 (the query was shed, not wrong), everything
// else 500.
func (s *Server) queryError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.error(w, http.StatusServiceUnavailable, "query timed out")
		return
	}
	if errors.Is(err, context.Canceled) {
		s.error(w, http.StatusServiceUnavailable, "query cancelled")
		return
	}
	s.error(w, http.StatusInternalServerError, err.Error())
}

// error answers with a JSON error body and counts it in the error
// metric, labeled by status code.
func (s *Server) error(w http.ResponseWriter, status int, msg string) {
	s.met.errors.With(strconv.Itoa(status)).Inc()
	writeError(w, status, msg)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// StatsResponse summarizes the database and index. Index figures
// (vectors, nodes, pages) aggregate across shards; Shards carries one
// entry per shard with its partition size and lifetime counters.
type StatsResponse struct {
	Matrices      int              `json:"matrices"`
	Vectors       int              `json:"vectors"`
	DistinctGenes int              `json:"distinctGenes"`
	TreeNodes     int              `json:"treeNodes"`
	TreeHeight    int              `json:"treeHeight"`
	Pages         uint64           `json:"pages"`
	Pivots        int              `json:"pivotsPerMatrix"`
	NumShards     int              `json:"numShards"`
	Shards        []ShardStatsJSON `json:"shards"`
	// Durability is present only on durable servers (NewDurable): boot
	// provenance plus WAL and checkpoint counters.
	Durability *DurabilityStatsJSON `json:"durability,omitempty"`
}

// ShardStatsJSON is one shard's /stats entry: partition size, operation
// counts, and lifetime I/O and cache counters.
type ShardStatsJSON struct {
	Shard        int    `json:"shard"`
	Sources      int    `json:"sources"`
	Vectors      int    `json:"vectors"`
	Queries      uint64 `json:"queries"`
	Mutations    uint64 `json:"mutations"`
	IOPages      uint64 `json:"ioPages"`
	IOBufferHits uint64 `json:"ioBufferHits"`
	CacheEntries int    `json:"cacheEntries"`
	CacheHits    uint64 `json:"cacheHits"`
	CacheMisses  uint64 `json:"cacheMisses"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.error(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.coord == nil {
		s.clusterStats(w, r)
		return
	}
	sum := s.coord.Database().Summary()
	bs := s.coord.IndexStats()
	infos := s.coord.Snapshot()
	shards := make([]ShardStatsJSON, len(infos))
	for i, info := range infos {
		shards[i] = ShardStatsJSON{
			Shard:        info.Shard,
			Sources:      info.Sources,
			Vectors:      info.Vectors,
			Queries:      info.Queries,
			Mutations:    info.Mutations,
			IOPages:      info.IOCost,
			IOBufferHits: info.IOHits,
			CacheEntries: info.CacheEntries,
			CacheHits:    info.CacheHits,
			CacheMisses:  info.CacheMisses,
		}
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Matrices:      sum.Matrices,
		Vectors:       bs.Vectors,
		DistinctGenes: sum.DistinctGenes,
		TreeNodes:     bs.TreeNodes,
		TreeHeight:    bs.TreeHeight,
		Pages:         bs.Pages,
		Pivots:        s.coord.D(),
		NumShards:     s.coord.NumShards(),
		Shards:        shards,
		Durability:    s.durabilityStats(),
	})
}

// QueryRequest is the /query payload: a feature matrix (one column per
// gene) plus the ad-hoc thresholds of Definition 4.
type QueryRequest struct {
	// Genes labels the columns, by name (resolved through the catalog) or
	// numeric ID when the name parses as an integer.
	Genes []string `json:"genes"`
	// Columns[i] is the feature vector of Genes[i]; all must share length.
	Columns [][]float64 `json:"columns"`
	Params  ParamsJSON  `json:"params"`
}

// GraphQueryRequest is the /query-graph payload: an explicit probabilistic
// pattern.
type GraphQueryRequest struct {
	Genes  []string   `json:"genes"`
	Edges  []EdgeJSON `json:"edges"`
	Params ParamsJSON `json:"params"`
}

// ParamsJSON mirrors core.Params for the wire.
type ParamsJSON struct {
	Gamma   float64 `json:"gamma"`
	Alpha   float64 `json:"alpha"`
	Samples int     `json:"samples,omitempty"`
	// Eps and Delta request a per-query (ε, δ)-approximation: the plan
	// then uses R = SampleSize(eps, delta) Monte Carlo samples (Lemma 2)
	// instead of the fixed samples value. Values outside ε > 0,
	// 0 < δ < 1 are answered with 400.
	Eps      float64 `json:"eps,omitempty"`
	Delta    float64 `json:"delta,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	Analytic bool    `json:"analytic,omitempty"`
	OneSided bool    `json:"oneSided,omitempty"`
	TopK     int     `json:"topK,omitempty"`
	// Workers overrides the server's intra-query parallelism for this
	// request (0 = use the server default).
	Workers int `json:"workers,omitempty"`
	// Trace requests a per-stage trace summary in the response (the
	// "trace" array; see SpanJSON). Queries are traced server-side for
	// metrics either way; this only controls the response payload.
	Trace bool `json:"trace,omitempty"`
}

// EdgeJSON is one probabilistic edge of a pattern or answer.
type EdgeJSON struct {
	S    int     `json:"s"`
	T    int     `json:"t"`
	Prob float64 `json:"prob"`
}

// AnswerJSON is one IM-GRN match.
type AnswerJSON struct {
	Source int        `json:"source"`
	Prob   float64    `json:"prob"`
	Genes  []string   `json:"genes"`
	Edges  []EdgeJSON `json:"edges"`
}

// QueryResponse is the /query and /query-graph reply. Trace is present
// only when the request set params.trace.
type QueryResponse struct {
	Answers []AnswerJSON `json:"answers"`
	Stats   QueryStats   `json:"stats"`
	Trace   []SpanJSON   `json:"trace,omitempty"`
}

// QueryStats carries the full core.Stats cost metrics of one request on
// the wire. Field names are the documented wire format (DESIGN.md
// "Observability" § wire stats): every core.Stats field appears under
// its lowerCamelCase name, durations as *Seconds floats, with the one
// historical exception that IOCost is named ioPages (it counts simulated
// page accesses). Accounting is per query: concurrent requests never
// pollute each other's counters.
type QueryStats struct {
	QueryVertices     int     `json:"queryVertices"`
	QueryEdges        int     `json:"queryEdges"`
	NodePairsVisited  int     `json:"nodePairsVisited"`
	NodePairsPruned   int     `json:"nodePairsPruned"`
	PointPairsChecked int     `json:"pointPairsChecked"`
	PointPairsPruned  int     `json:"pointPairsPruned"`
	CandidateGenes    int     `json:"candidateGenes"`
	CandidateMatrices int     `json:"candidateMatrices"`
	MatricesPrunedL5  int     `json:"matricesPrunedL5"`
	Answers           int     `json:"answers"`
	IOCost            uint64  `json:"ioPages"`
	IOHits            uint64  `json:"ioBufferHits"`
	CacheHits         int     `json:"cacheHits"`
	CacheMisses       int     `json:"cacheMisses"`
	Draws             int     `json:"draws"`
	InferSeconds      float64 `json:"inferSeconds"`
	TraversalSeconds  float64 `json:"traversalSeconds"`
	RefinementSeconds float64 `json:"refinementSeconds"`
	MarkovSeconds     float64 `json:"markovPruneSeconds"`
	MonteCarloSeconds float64 `json:"monteCarloSeconds"`
	TotalSeconds      float64 `json:"totalSeconds"`
	// Plan reports the execution plan the query ran under (present on
	// every query; adaptive plans additionally carry the skipped stages
	// and the cost-model snapshot behind the decisions).
	Plan *PlanJSON `json:"plan,omitempty"`
}

// PlanJSON is the wire form of one query's execution plan.
type PlanJSON struct {
	// Mode is "fixed" (the default pipeline) or "adaptive" (at least one
	// cost-model decision departed from it).
	Mode string `json:"mode"`
	// Samples is the Monte Carlo sample count R the estimators used.
	Samples int `json:"samples"`
	// FromAccuracy, Eps, Delta report that (and which) requested
	// (ε, δ)-approximation chose Samples via the Lemma-2 bound.
	FromAccuracy bool    `json:"fromAccuracy,omitempty"`
	Eps          float64 `json:"eps,omitempty"`
	Delta        float64 `json:"delta,omitempty"`
	// Stage switches: false means the plan skipped the stage.
	PivotPruning  bool `json:"pivotPruning"`
	Signatures    bool `json:"signatures"`
	MarkovPruning bool `json:"markovPruning"`
	BatchKernel   bool `json:"batchKernel"`
	// Skipped lists the adaptive departures by stage name; Cost is the
	// planner's cost-model snapshot at plan time (both absent on fixed
	// plans).
	Skipped []string        `json:"skipped,omitempty"`
	Cost    *plan.CostModel `json:"cost,omitempty"`
}

// planJSON maps a resolved plan onto the wire (nil in, nil out).
func planJSON(pl *plan.Plan) *PlanJSON {
	if pl == nil {
		return nil
	}
	out := &PlanJSON{
		Mode:          pl.Mode(),
		Samples:       pl.EffectiveSamples(),
		FromAccuracy:  pl.FromAccuracy,
		Eps:           pl.Eps,
		Delta:         pl.Delta,
		PivotPruning:  pl.Pivot,
		Signatures:    pl.Signatures,
		MarkovPruning: pl.Markov,
		BatchKernel:   pl.Batch,
		Skipped:       pl.Skipped,
	}
	if pl.Adaptive {
		cost := pl.Cost
		out.Cost = &cost
	}
	return out
}

// statsJSON maps core.Stats onto the wire format.
func statsJSON(st core.Stats) QueryStats {
	return QueryStats{
		QueryVertices:     st.QueryVertices,
		QueryEdges:        st.QueryEdges,
		NodePairsVisited:  st.NodePairsVisited,
		NodePairsPruned:   st.NodePairsPruned,
		PointPairsChecked: st.PointPairsChecked,
		PointPairsPruned:  st.PointPairsPruned,
		CandidateGenes:    st.CandidateGenes,
		CandidateMatrices: st.CandidateMatrices,
		MatricesPrunedL5:  st.MatricesPrunedL5,
		Answers:           st.Answers,
		IOCost:            st.IOCost,
		IOHits:            st.IOHits,
		CacheHits:         st.CacheHits,
		CacheMisses:       st.CacheMisses,
		Draws:             st.Draws,
		InferSeconds:      st.InferQuery.Seconds(),
		TraversalSeconds:  st.Traversal.Seconds(),
		RefinementSeconds: st.Refinement.Seconds(),
		MarkovSeconds:     st.MarkovPrune.Seconds(),
		MonteCarloSeconds: st.MonteCarlo.Seconds(),
		TotalSeconds:      st.Total.Seconds(),
		Plan:              planJSON(st.Plan),
	}
}

// SpanJSON is one pipeline-stage span of a traced request.
type SpanJSON struct {
	Stage        string  `json:"stage"`
	BeginSeconds float64 `json:"beginSeconds"`
	DurSeconds   float64 `json:"durSeconds"`
	In           int     `json:"in"`
	Out          int     `json:"out"`
}

func spansJSON(tr *obs.Tracer) []SpanJSON {
	spans := tr.Spans()
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanJSON, len(spans))
	for i, sp := range spans {
		out[i] = SpanJSON{
			Stage:        sp.Stage.String(),
			BeginSeconds: sp.Begin.Seconds(),
			DurSeconds:   sp.Dur.Seconds(),
			In:           sp.In,
			Out:          sp.Out,
		}
	}
	return out
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	ids, err := s.resolveGenes(req.Genes)
	if err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Columns) != len(ids) {
		s.error(w, http.StatusBadRequest,
			fmt.Sprintf("%d gene names for %d columns", len(ids), len(req.Columns)))
		return
	}
	mq, err := gene.NewMatrix(-1, ids, req.Columns)
	if err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	tr := obs.NewTracer()
	params, err := s.params(req.Params, len(ids), tr)
	if err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	release, ok := s.acquire(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.queryContext(r)
	defer cancel()
	// TopK routes through the coordinator's bounded merge so sharded
	// deployments terminate refinement early on the cross-shard Markov
	// bound; the answers come back ranked and trimmed.
	var answers []core.Answer
	var st core.Stats
	if req.Params.TopK > 0 {
		answers, st, err = s.eng.QueryTopKContext(ctx, mq, params, req.Params.TopK)
	} else {
		answers, st, err = s.eng.QueryContext(ctx, mq, params)
	}
	if err != nil {
		s.queryError(w, err)
		return
	}
	s.observeQuery("query", st, tr)
	writeJSON(w, http.StatusOK, s.response(answers, st, req.Params, tr))
}

func (s *Server) handleQueryGraph(w http.ResponseWriter, r *http.Request) {
	var req GraphQueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	ids, err := s.resolveGenes(req.Genes)
	if err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	q := grn.NewGraph(ids)
	for _, e := range req.Edges {
		if e.S < 0 || e.S >= len(ids) || e.T < 0 || e.T >= len(ids) || e.S == e.T {
			s.error(w, http.StatusBadRequest, fmt.Sprintf("bad edge (%d,%d)", e.S, e.T))
			return
		}
		q.SetEdge(e.S, e.T, e.Prob)
	}
	tr := obs.NewTracer()
	params, err := s.params(req.Params, len(ids), tr)
	if err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	release, ok := s.acquire(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.queryContext(r)
	defer cancel()
	answers, st, err := s.eng.QueryGraphContext(ctx, q, params)
	if err != nil {
		s.queryError(w, err)
		return
	}
	s.observeQuery("query-graph", st, tr)
	writeJSON(w, http.StatusOK, s.response(answers, st, req.Params, tr))
}

// ClusterRequest is the /cluster payload: group the indexed data sources
// by regulatory-structure similarity (the Example-2 workflow).
type ClusterRequest struct {
	// K is the number of clusters (required, 1..N).
	K int `json:"k"`
	// Gamma is the edge threshold of the structure distance (0.9 when 0).
	Gamma float64 `json:"gamma,omitempty"`
	// Restarts of the k-medoids search (4 when 0).
	Restarts int `json:"restarts,omitempty"`
	// Seed of the medoid initialization.
	Seed uint64 `json:"seed,omitempty"`
}

// ClusterResponse reports the clustering.
type ClusterResponse struct {
	Clusters []ClusterJSON `json:"clusters"`
}

// ClusterJSON is one cluster: its medoid source and member sources.
type ClusterJSON struct {
	Medoid  int   `json:"medoidSource"`
	Members []int `json:"memberSources"`
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	var req ClusterRequest
	if !s.decode(w, r, &req) {
		return
	}
	if s.coord == nil {
		// Structure clustering needs the raw matrices; the cluster
		// coordinator holds none. Run it against a shard server directly.
		s.error(w, http.StatusNotImplemented, "/cluster is not served in coordinator mode")
		return
	}
	db := s.coord.Database()
	if req.K < 1 || req.K > db.Len() {
		s.error(w, http.StatusBadRequest,
			fmt.Sprintf("k=%d out of range [1,%d]", req.K, db.Len()))
		return
	}
	restarts := req.Restarts
	if restarts <= 0 {
		restarts = 4
	}
	release, ok := s.acquire(w)
	if !ok {
		return
	}
	defer release()
	dm, err := grnclust.DistanceMatrix(db, grnclust.Options{Gamma: req.Gamma})
	if err != nil {
		s.error(w, http.StatusInternalServerError, err.Error())
		return
	}
	res, err := grnclust.KMedoids(dm, req.K, restarts, randgen.New(req.Seed^0x5bd1e995))
	if err != nil {
		s.error(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := ClusterResponse{Clusters: make([]ClusterJSON, res.K())}
	for c := range resp.Clusters {
		resp.Clusters[c].Medoid = db.Matrix(res.Medoids[c]).Source
		resp.Clusters[c].Members = []int{}
	}
	for i, c := range res.Assign {
		resp.Clusters[c].Members = append(resp.Clusters[c].Members, db.Matrix(i).Source)
	}
	s.met.requests.With("cluster").Inc()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	if r.Method != http.MethodPost {
		s.error(w, http.StatusMethodNotAllowed, "use POST")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		s.error(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return false
	}
	return true
}

// params maps the wire params onto core.Params, validates them, and —
// when the server has a Planner — builds the query's adaptive plan under
// a "plan" trace span (In = queries the cost model has observed, Out =
// the chosen sample count R). Errors are client errors: out-of-range
// thresholds or an invalid (ε, δ), answered with 400. The coordinator
// supplies each shard's edge-probability cache itself, keyed by
// estimator settings.
func (s *Server) params(p ParamsJSON, queryGenes int, tr *obs.Tracer) (core.Params, error) {
	workers := p.Workers
	if workers <= 0 {
		workers = s.Workers
	}
	cp := core.Params{
		Gamma: p.Gamma, Alpha: p.Alpha, Samples: p.Samples,
		Eps: p.Eps, Delta: p.Delta,
		Seed: p.Seed, Analytic: p.Analytic, OneSided: p.OneSided,
		Workers: workers, Trace: tr,
	}
	if err := cp.Validate(); err != nil {
		return cp, err
	}
	if s.Planner != nil {
		mark := tr.Start(obs.StagePlan)
		pl, err := s.Planner.Plan(s.planRequest(p, queryGenes))
		if err != nil {
			return cp, err
		}
		cp.Plan = pl
		mark.End(s.Planner.Queries(), pl.EffectiveSamples())
	}
	return cp, nil
}

// planRequest assembles the Planner's view of one query from the wire
// params and the coordinator's engine state: cached edge-probability
// density across shards, the indexed vector count, and the index's mean
// per-vector §4 pivot cost.
func (s *Server) planRequest(p ParamsJSON, queryGenes int) plan.Request {
	req := plan.Request{
		Eps: p.Eps, Delta: p.Delta, Samples: p.Samples,
		Pivot: true, Signatures: true, Markov: true, Batch: true,
		QueryGenes: queryGenes,
	}
	if s.coord == nil {
		// Coordinator mode: no local index to read cost signals from; the
		// planner falls back to its model-only decisions.
		return req
	}
	for _, info := range s.coord.Snapshot() {
		req.CacheEntries += info.CacheEntries
	}
	bs := s.coord.IndexStats()
	req.DBVectors = bs.Vectors
	if bs.Vectors > 0 {
		req.MeanPivotCost = bs.PivotCostSum / float64(bs.Vectors)
	}
	return req
}

// observeQuery feeds one finished query's statistics and trace spans
// into the metrics registry and the slow-query log.
func (s *Server) observeQuery(endpoint string, st core.Stats, tr *obs.Tracer) {
	m := &s.met
	m.requests.With(endpoint).Inc()
	m.latency.Observe(st.Total.Seconds())
	for _, sp := range tr.Spans() {
		m.stage.With(sp.Stage.String()).Observe(sp.Dur.Seconds())
	}
	m.candFiltered.Add(uint64(st.NodePairsPruned + st.PointPairsPruned + st.MatricesPrunedL5))
	if refined := st.CandidateMatrices - st.MatricesPrunedL5; refined > 0 {
		m.candRefined.Add(uint64(refined))
	}
	m.cacheHits.Add(uint64(st.CacheHits))
	m.cacheMisses.Add(uint64(st.CacheMisses))
	m.pageAccesses.Add(st.IOCost)
	m.bufferHits.Add(st.IOHits)
	m.readerPages.Set(int64(st.IOCost))
	if pl := st.Plan; pl != nil {
		m.planQueries.With(pl.Mode()).Inc()
		m.planSamples.Set(int64(pl.EffectiveSamples()))
		for _, stage := range pl.Skipped {
			m.planSkips.With(stage).Inc()
		}
	}
	if s.Planner != nil {
		// Close the cost-model loop: realized stage statistics refine the
		// EWMA estimates the next plan is decided on.
		s.Planner.Observe(st.PlanFeedback())
		snap := s.Planner.Snapshot()
		m.planStageCost.With("markov_prune").Set(int64(snap.Cost.MarkovPerCandidate * 1e9))
		m.planStageCost.With("monte_carlo").Set(int64(snap.Cost.MonteCarloPerCandidate * 1e9))
	}
	if s.SlowQueryThreshold > 0 && st.Total >= s.SlowQueryThreshold {
		m.slow.Inc()
		logger := s.SlowQueryLog
		if logger == nil {
			logger = log.Default()
		}
		logger.Printf("slow query: endpoint=%s total=%v io=%d answers=%d trace: %s",
			endpoint, st.Total.Round(time.Microsecond), st.IOCost, st.Answers, tr.Summary())
	}
}

// resolveGenes maps request gene names to IDs via the catalog, falling
// back to numeric parsing.
func (s *Server) resolveGenes(names []string) ([]gene.ID, error) {
	ids := make([]gene.ID, len(names))
	for i, name := range names {
		if s.cat != nil {
			if id, ok := s.cat.Lookup(name); ok {
				ids[i] = id
				continue
			}
		}
		var numeric int64
		if _, err := fmt.Sscanf(name, "%d", &numeric); err != nil {
			return nil, fmt.Errorf("unknown gene %q", name)
		}
		ids[i] = gene.ID(numeric)
	}
	return ids, nil
}

func (s *Server) geneName(id gene.ID) string {
	if s.cat != nil {
		return s.cat.Name(id)
	}
	return fmt.Sprintf("%d", int(id))
}

func (s *Server) response(answers []core.Answer, st core.Stats, p ParamsJSON, tr *obs.Tracer) QueryResponse {
	if p.TopK > 0 && len(answers) > p.TopK {
		// Answers arrive sorted by source; rank by probability for top-k.
		mark := tr.Start(obs.StageTopK)
		in := len(answers)
		core.RankAnswers(answers)
		answers = answers[:p.TopK]
		mark.End(in, len(answers))
		st.Answers = len(answers)
	}
	out := QueryResponse{
		Answers: make([]AnswerJSON, 0, len(answers)),
		Stats:   statsJSON(st),
	}
	if p.Trace {
		out.Trace = spansJSON(tr)
	}
	for _, a := range answers {
		aj := AnswerJSON{Source: a.Source, Prob: a.Prob}
		for _, g := range a.Genes {
			aj.Genes = append(aj.Genes, s.geneName(g))
		}
		for _, e := range a.Edges {
			aj.Edges = append(aj.Edges, EdgeJSON{S: e.S, T: e.T, Prob: e.P})
		}
		out.Answers = append(out.Answers, aj)
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
