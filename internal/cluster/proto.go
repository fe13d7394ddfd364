package cluster

import (
	"encoding/json"
	"errors"
	"time"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
)

// Cluster wire protocol (DESIGN.md §15). One coordinator-resolved
// request envelope per (request, shard): the envelope carries every item
// of the request — a solo query is the one-item case — each with its
// query payload (matrix columns or explicit pattern), scalar params,
// encoded plan (plan.EncodeWire — every shard executes the identical
// decisions) and top-k bound, plus the GLOBAL shard index to execute (the
// shard server derives SeedFrom(Seed, global) itself, so answers are a
// pure function of placement and params, never of which replica served
// the request). Responses stream NDJSON: per-item accept frames (top-k
// floor propagation) and one item frame per item as it retires on the
// shard, then exactly one terminal frame (done, or an error).
//
// Endpoints (served by internal/server in the shard role):
//
//	POST /cluster/exec    every item of one request, one global shard (or solo)
//	POST /cluster/mutate  routed mutation (replicated by the caller)
//	POST /cluster/floor   raise one live item's top-k floor
//	GET  /cluster/info    shard-server membership/health snapshot
//
// Versioning: every request carries Proto; a mismatch is answered with
// an explicit 400, never a best-effort execution. The plan payload is
// versioned separately (plan.WireVersion).

// ProtoVersion is the cluster protocol version. 3: one execution RPC —
// /cluster/exec carries the batch envelope, the single-query envelope and
// /cluster/exec-batch are gone, and accept frames and floor pushes name
// the item they belong to.
const ProtoVersion = 3

// ErrProtoVersion reports a protocol version mismatch between
// coordinator and shard server. Matchable with errors.Is.
var ErrProtoVersion = errors.New("cluster: protocol version mismatch")

// Request kinds.
const (
	KindMatrix = "matrix" // feature-matrix query: the shard server infers the GRN at the base seed
	KindGraph  = "graph"  // explicit probabilistic pattern
)

// Endpoint paths.
const (
	PathExec    = "/cluster/exec"
	PathMutate  = "/cluster/mutate"
	PathFloor   = "/cluster/floor"
	PathInfo    = "/cluster/info"
	PathMembers = "/cluster/members"
)

// WireParams is the scalar subset of core.Params that travels in the
// envelope. Runtime-only fields (Cache, Trace, Sink) never travel; the
// plan travels separately as an encoded plan.Plan, and its decisions
// overwrite Samples and the stage switches on the shard server exactly
// as ResolvePlan does in process.
type WireParams struct {
	Gamma    float64 `json:"gamma"`
	Alpha    float64 `json:"alpha"`
	Samples  int     `json:"samples,omitempty"`
	Seed     uint64  `json:"seed"`
	Analytic bool    `json:"analytic,omitempty"`
	OneSided bool    `json:"oneSided,omitempty"`
	// Workers ships as the shard's intra-query worker budget. It changes
	// no Monte Carlo stream and no answer: every work unit draws from its
	// own (Seed, unit) stream.
	Workers int `json:"workers,omitempty"`
}

// ParamsToWire extracts the wire subset of params.
func ParamsToWire(p core.Params) WireParams {
	return WireParams{
		Gamma: p.Gamma, Alpha: p.Alpha, Samples: p.Samples,
		Seed: p.Seed, Analytic: p.Analytic, OneSided: p.OneSided,
		Workers: p.Workers,
	}
}

// Params rebuilds core.Params from the wire subset.
func (w WireParams) Params() core.Params {
	return core.Params{
		Gamma: w.Gamma, Alpha: w.Alpha, Samples: w.Samples,
		Seed: w.Seed, Analytic: w.Analytic, OneSided: w.OneSided,
		Workers: w.Workers,
	}
}

// WireEdge is one probabilistic edge in query-vertex indexing.
type WireEdge struct {
	S    int     `json:"s"`
	T    int     `json:"t"`
	Prob float64 `json:"prob"`
}

// WireAnswer carries one core.Answer bit-exactly: Go's encoding/json
// round-trips float64 through the shortest decimal representation, so
// probabilities survive the network unchanged.
type WireAnswer struct {
	Source int        `json:"source"`
	Prob   float64    `json:"prob"`
	Genes  []int32    `json:"genes"`
	Edges  []WireEdge `json:"edges"`
}

// AnswerToWire / Answer convert between core and wire answers.
func AnswerToWire(a core.Answer) WireAnswer {
	w := WireAnswer{Source: a.Source, Prob: a.Prob}
	if len(a.Genes) > 0 {
		w.Genes = make([]int32, len(a.Genes))
		for i, g := range a.Genes {
			w.Genes[i] = int32(g)
		}
	}
	if len(a.Edges) > 0 {
		w.Edges = make([]WireEdge, len(a.Edges))
		for i, e := range a.Edges {
			w.Edges[i] = WireEdge{S: e.S, T: e.T, Prob: e.P}
		}
	}
	return w
}

func (w WireAnswer) Answer() core.Answer {
	a := core.Answer{Source: w.Source, Prob: w.Prob}
	if len(w.Genes) > 0 {
		a.Genes = make([]gene.ID, len(w.Genes))
		for i, g := range w.Genes {
			a.Genes[i] = gene.ID(g)
		}
	}
	if len(w.Edges) > 0 {
		a.Edges = make([]grn.Edge, len(w.Edges))
		for i, e := range w.Edges {
			a.Edges[i] = grn.Edge{S: e.S, T: e.T, P: e.Prob}
		}
	}
	return a
}

// AnswersToWire converts a source-ordered answer run for the wire.
func AnswersToWire(answers []core.Answer) []WireAnswer {
	out := make([]WireAnswer, len(answers))
	for i, a := range answers {
		out[i] = AnswerToWire(a)
	}
	return out
}

// AnswersFromWire rebuilds a wire answer run as core answers.
func AnswersFromWire(ws []WireAnswer) []core.Answer {
	out := make([]core.Answer, len(ws))
	for i, w := range ws {
		out[i] = w.Answer()
	}
	return out
}

// WireStats mirrors core.Stats (minus the plan, which the coordinator
// already holds); durations travel as nanoseconds.
type WireStats struct {
	InferNs           int64  `json:"inferNs,omitempty"`
	TraversalNs       int64  `json:"traversalNs,omitempty"`
	RefinementNs      int64  `json:"refinementNs,omitempty"`
	MarkovNs          int64  `json:"markovNs,omitempty"`
	MonteCarloNs      int64  `json:"monteCarloNs,omitempty"`
	TotalNs           int64  `json:"totalNs,omitempty"`
	IOCost            uint64 `json:"ioCost,omitempty"`
	IOHits            uint64 `json:"ioHits,omitempty"`
	NodePairsVisited  int    `json:"nodePairsVisited,omitempty"`
	NodePairsPruned   int    `json:"nodePairsPruned,omitempty"`
	PointPairsChecked int    `json:"pointPairsChecked,omitempty"`
	PointPairsPruned  int    `json:"pointPairsPruned,omitempty"`
	CandidateGenes    int    `json:"candidateGenes,omitempty"`
	CandidateMatrices int    `json:"candidateMatrices,omitempty"`
	MatricesPrunedL5  int    `json:"matricesPrunedL5,omitempty"`
	Answers           int    `json:"answers,omitempty"`
	CacheHits         int    `json:"cacheHits,omitempty"`
	CacheMisses       int    `json:"cacheMisses,omitempty"`
	Draws             int    `json:"draws,omitempty"`
	QueryVertices     int    `json:"queryVertices,omitempty"`
	QueryEdges        int    `json:"queryEdges,omitempty"`
}

// StatsToWire / Stats convert between core and wire stats.
func StatsToWire(st core.Stats) WireStats {
	return WireStats{
		InferNs:      st.InferQuery.Nanoseconds(),
		TraversalNs:  st.Traversal.Nanoseconds(),
		RefinementNs: st.Refinement.Nanoseconds(),
		MarkovNs:     st.MarkovPrune.Nanoseconds(),
		MonteCarloNs: st.MonteCarlo.Nanoseconds(),
		TotalNs:      st.Total.Nanoseconds(),
		IOCost:       st.IOCost, IOHits: st.IOHits,
		NodePairsVisited: st.NodePairsVisited, NodePairsPruned: st.NodePairsPruned,
		PointPairsChecked: st.PointPairsChecked, PointPairsPruned: st.PointPairsPruned,
		CandidateGenes: st.CandidateGenes, CandidateMatrices: st.CandidateMatrices,
		MatricesPrunedL5: st.MatricesPrunedL5, Answers: st.Answers,
		CacheHits: st.CacheHits, CacheMisses: st.CacheMisses, Draws: st.Draws,
		QueryVertices: st.QueryVertices, QueryEdges: st.QueryEdges,
	}
}

func (w WireStats) Stats() core.Stats {
	return core.Stats{
		InferQuery:  time.Duration(w.InferNs),
		Traversal:   time.Duration(w.TraversalNs),
		Refinement:  time.Duration(w.RefinementNs),
		MarkovPrune: time.Duration(w.MarkovNs),
		MonteCarlo:  time.Duration(w.MonteCarloNs),
		Total:       time.Duration(w.TotalNs),
		IOCost:      w.IOCost, IOHits: w.IOHits,
		NodePairsVisited: w.NodePairsVisited, NodePairsPruned: w.NodePairsPruned,
		PointPairsChecked: w.PointPairsChecked, PointPairsPruned: w.PointPairsPruned,
		CandidateGenes: w.CandidateGenes, CandidateMatrices: w.CandidateMatrices,
		MatricesPrunedL5: w.MatricesPrunedL5, Answers: w.Answers,
		CacheHits: w.CacheHits, CacheMisses: w.CacheMisses, Draws: w.Draws,
		QueryVertices: w.QueryVertices, QueryEdges: w.QueryEdges,
	}
}

// BatchExecRequest is the /cluster/exec envelope: every item of one
// request for one global shard in one RPC. Solo marks the P=1 degenerate
// case: the shard server runs the caller's params untouched on its single
// shard — the same streams the unsharded engine uses — instead of the
// derived-seed scatter leg.
type BatchExecRequest struct {
	Proto   int    `json:"proto"`
	QueryID string `json:"queryId"`
	// NumShards is the GLOBAL partition count P; the shard server rejects
	// a mismatch with its own topology (a misconfigured cluster must fail
	// loudly, not return wrong-seeded answers).
	NumShards int `json:"numShards"`
	// Shard is the GLOBAL shard index to execute.
	Shard         int             `json:"shard"`
	Solo          bool            `json:"solo,omitempty"`
	ItemTimeoutMs int64           `json:"itemTimeoutMs,omitempty"`
	Items         []BatchExecItem `json:"items"`
}

// BatchExecItem is one query in the envelope.
type BatchExecItem struct {
	Kind string `json:"kind"`
	// K > 0 runs the item's shard leg in streamed top-k mode with a local
	// sink (accept frames + a local top-k run); 0 returns the full run.
	K       int             `json:"k,omitempty"`
	Genes   []int32         `json:"genes"`
	Columns [][]float64     `json:"columns,omitempty"` // KindMatrix
	Edges   []WireEdge      `json:"edges,omitempty"`   // KindGraph
	Params  WireParams      `json:"params"`
	Plan    json.RawMessage `json:"plan,omitempty"`
}

// BatchExecFrame is one NDJSON response frame of /cluster/exec: accept
// and item frames as items run and retire on the shard, then one terminal
// frame (Done, or Error). Exactly one of the fields is set.
type BatchExecFrame struct {
	// Accept streams one locally-accepted top-k answer the moment the
	// item's sink admits it — the floor-propagation feed. Performance
	// only: the item frame's run is authoritative.
	Accept *AcceptFrame    `json:"accept,omitempty"`
	Item   *BatchItemFrame `json:"item,omitempty"`
	Done   bool            `json:"done,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// AcceptFrame is one streamed top-k acceptance of item Item.
type AcceptFrame struct {
	Item   int     `json:"item"`
	Shard  int     `json:"shard"`
	Source int     `json:"source"`
	Prob   float64 `json:"prob"`
}

// BatchItemFrame is one item's result on the executed shard. For K > 0
// the run is the shard's local top-k (sink results); otherwise the full
// source-ascending run. Infer reports the server-side query-graph
// inference stats (KindMatrix scatter legs only).
type BatchItemFrame struct {
	Index   int          `json:"index"`
	Shard   int          `json:"shard"`
	Answers []WireAnswer `json:"answers,omitempty"`
	Stats   WireStats    `json:"stats"`
	Infer   *WireStats   `json:"infer,omitempty"`
	Error   string       `json:"error,omitempty"`
}

// MutateRequest is the /cluster/mutate envelope. The coordinator places
// the source on its ring, then sends the mutation to EVERY replica of
// the owning shard; Shard names the expected global shard so a
// misconfigured server (different ring or topology) rejects instead of
// placing the source elsewhere.
type MutateRequest struct {
	Proto  int    `json:"proto"`
	Op     string `json:"op"` // "add" | "remove"
	Source int    `json:"source"`
	Shard  int    `json:"shard"`
	// NumShards guards topology agreement like BatchExecRequest.NumShards.
	NumShards int         `json:"numShards"`
	Genes     []int32     `json:"genes,omitempty"`
	Columns   [][]float64 `json:"columns,omitempty"`
}

// MutateWireResponse acknowledges a replicated mutation on one replica.
type MutateWireResponse struct {
	Status string `json:"status"`
	Source int    `json:"source"`
	Shard  int    `json:"shard"`
	// Matrices is the replica's LOCAL source count after the mutation
	// (its served shards only).
	Matrices int `json:"matrices"`
}

// FloorRequest is the /cluster/floor envelope: raise the top-k floor of
// item Item of the named live request to the coordinator's current global
// floor for that item. Fire-and-forget; a request that already finished
// acks trivially.
type FloorRequest struct {
	Proto   int     `json:"proto"`
	QueryID string  `json:"queryId"`
	Item    int     `json:"item"`
	Floor   float64 `json:"floor"`
}

// FloorResponse acknowledges a floor update.
type FloorResponse struct {
	Status string `json:"status"`
	// Sinks is the number of live sinks the floor reached.
	Sinks int `json:"sinks"`
}

// InfoResponse is the GET /cluster/info snapshot: the shard server's
// identity, served shards and per-shard load — the coordinator's health
// probe and rebalance-signal input.
type InfoResponse struct {
	Proto     int             `json:"proto"`
	Role      string          `json:"role"`
	NumShards int             `json:"numShards"`
	Shards    []WireShardInfo `json:"shards"`
	// Durable state, when the server runs over a durable store.
	Gen      uint64 `json:"gen,omitempty"`
	WarmBoot bool   `json:"warmBoot,omitempty"`
}

// WireShardInfo is one served shard's load snapshot.
type WireShardInfo struct {
	// Global is the shard's global index; Local its index on this server.
	Global    int    `json:"global"`
	Local     int    `json:"local"`
	Sources   int    `json:"sources"`
	Vectors   int    `json:"vectors"`
	Queries   uint64 `json:"queries"`
	Mutations uint64 `json:"mutations"`
}
