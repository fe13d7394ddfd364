package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/imgrn/imgrn/internal/cluster"
	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/obs"
	"github.com/imgrn/imgrn/internal/plan"
	"github.com/imgrn/imgrn/internal/shard"
)

// Shard-role serving (DESIGN.md §15). A shard server is an ordinary
// server — every public endpoint keeps working against its local shards —
// that additionally mounts the /cluster/* execution endpoints a remote
// cluster.Coordinator scatters to. The contract is byte-identity: the
// coordinator ships the query graph, the resolved plan and the GLOBAL
// shard index, and the server runs the in-process leg
// (shard.Coordinator.QueryShardBatch) under the caller's params, so the
// merged answer depends only on the database and the params — never on
// placement or on which replica served the leg.

// ShardRole describes the slice of the global partition this server
// hosts: the global shard count P, the global indexes of the hosted
// shards (order = local shard index on the underlying coordinator), and
// the placement ring every member of the cluster shares.
type ShardRole struct {
	// NumShards is the GLOBAL partition count P. Requests carrying a
	// different count are rejected: a misconfigured cluster must fail
	// loudly, not return answers over the wrong partition.
	NumShards int
	// Shards lists the hosted global shard indexes; Shards[local] is the
	// global index of the coordinator's local shard `local`.
	Shards []int
	// Ring is the cluster's consistent-hash placement ring; mutations
	// re-derive their placement on it and reject disagreement.
	Ring *cluster.Ring
}

// localOf maps a global shard index to its local index, -1 if not hosted.
func (role *ShardRole) localOf(global int) int {
	for local, g := range role.Shards {
		if g == global {
			return local
		}
	}
	return -1
}

// PlaceLocal is the shard.Options.PlaceFunc of a shard server's
// coordinator: a source goes through the ring to its global shard, then
// to that shard's local index here. A source of a shard this server does
// not host maps to 0; the /cluster/mutate handler rejects such sources
// before they reach the coordinator.
func (role *ShardRole) PlaceLocal(source int) int {
	return max(role.localOf(role.Ring.Place(source)), 0)
}

// floorRegistry tracks the live top-k sinks of in-flight /cluster/exec
// requests so /cluster/floor pushes can raise their floors mid-query.
// Keyed by coordinator query ID and item; one server may run several
// shards of the same request concurrently, hence the slice.
type floorRegistry struct {
	mu    sync.Mutex
	sinks map[floorKey][]*core.TopKSink
}

type floorKey struct {
	qid  string
	item int
}

func (f *floorRegistry) register(key floorKey, sink *core.TopKSink) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sinks == nil {
		f.sinks = make(map[floorKey][]*core.TopKSink)
	}
	f.sinks[key] = append(f.sinks[key], sink)
}

func (f *floorRegistry) deregister(key floorKey, sink *core.TopKSink) {
	f.mu.Lock()
	defer f.mu.Unlock()
	live := f.sinks[key][:0]
	for _, s := range f.sinks[key] {
		if s != sink {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		delete(f.sinks, key)
	} else {
		f.sinks[key] = live
	}
}

// raise lifts every live sink of key to floor and reports how many it
// reached. A finished (deregistered) item acks trivially with 0.
func (f *floorRegistry) raise(key floorKey, floor float64) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.sinks[key] {
		s.RaiseFloor(floor)
	}
	return len(f.sinks[key])
}

// NewShardServer returns a shard-role server: New plus the /cluster/*
// endpoints. coord must host exactly the shards role.Shards names, placed
// by role.PlaceLocal (see cmd/imgrn-server for the boot wiring). Over a
// durable coordinator the /cluster/mutate leg is write-ahead logged, so a
// replicated mutation is fsynced on every replica before the cluster
// coordinator sees all acks.
func NewShardServer(coord *shard.Coordinator, cat *gene.Catalog, role *ShardRole) *Server {
	s := New(coord, cat)
	s.role = role
	s.mux.HandleFunc(cluster.PathExec, s.handleClusterExec)
	s.mux.HandleFunc(cluster.PathMutate, s.handleClusterMutate)
	s.mux.HandleFunc(cluster.PathFloor, s.handleClusterFloor)
	s.mux.HandleFunc(cluster.PathInfo, s.handleClusterInfo)
	// Pre-seed the new endpoint series: every series that can appear
	// exists from the first scrape.
	for _, ep := range []string{"cluster-exec", "cluster-mutate", "cluster-floor", "cluster-info"} {
		s.met.requests.With(ep)
	}
	return s
}

// checkEnvelope validates the shared envelope fields (protocol version,
// topology agreement) and answers the request itself on failure.
func (s *Server) checkEnvelope(w http.ResponseWriter, proto, numShards int) bool {
	if proto != cluster.ProtoVersion {
		// The "protocol version" text is load-bearing: the client maps it
		// back to cluster.ErrProtoVersion.
		s.error(w, http.StatusBadRequest,
			fmt.Sprintf("protocol version mismatch: request speaks %d, this server speaks %d", proto, cluster.ProtoVersion))
		return false
	}
	if numShards != s.role.NumShards {
		s.error(w, http.StatusBadRequest,
			fmt.Sprintf("topology mismatch: request partitions into %d shards, this server into %d", numShards, s.role.NumShards))
		return false
	}
	return true
}

// clusterParams rebuilds validated core.Params from the wire subset plus
// the coordinator's encoded plan.
func clusterParams(wp cluster.WireParams, rawPlan json.RawMessage, tr *obs.Tracer) (core.Params, error) {
	p := wp.Params()
	p.Trace = tr
	if len(rawPlan) > 0 {
		pl, err := plan.DecodeWire(rawPlan)
		if err != nil {
			return p, err
		}
		p.Plan = pl
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// clusterGraph materializes an envelope item's query graph.
func clusterGraph(genes []int32, edges []cluster.WireEdge) (*grn.Graph, error) {
	ids := make([]gene.ID, len(genes))
	for i, g := range genes {
		ids[i] = gene.ID(g)
	}
	q := grn.NewGraph(ids)
	for _, e := range edges {
		if e.S < 0 || e.S >= len(ids) || e.T < 0 || e.T >= len(ids) || e.S == e.T {
			return nil, fmt.Errorf("bad edge (%d,%d)", e.S, e.T)
		}
		q.SetEdge(e.S, e.T, e.Prob)
	}
	return q, nil
}

// handleClusterExec executes every item of one coordinator request on one
// hosted shard, streaming accept and item frames as the items run and
// retire.
func (s *Server) handleClusterExec(w http.ResponseWriter, r *http.Request) {
	var req cluster.BatchExecRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.checkEnvelope(w, req.Proto, req.NumShards) {
		return
	}
	local := s.role.localOf(req.Shard)
	if local < 0 {
		s.error(w, http.StatusBadRequest,
			fmt.Sprintf("global shard %d is not hosted here (serving %v)", req.Shard, s.role.Shards))
		return
	}
	release, ok := s.acquire(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.queryContext(r)
	defer cancel()
	// Frames after the header cannot change the status code, so every
	// later failure travels as an Error frame.
	out := newFrameWriter(w, len(req.Items))
	frame := func(kind frameKind, f cluster.BatchExecFrame) {
		sendFrame(out, kind, &f, cluster.AppendBatchExecFrame)
	}

	itemTimeout := time.Duration(req.ItemTimeoutMs) * time.Millisecond
	fail := func(i int, err error) {
		frame(itemFrame, cluster.BatchExecFrame{Item: &cluster.BatchItemFrame{Index: i, Shard: req.Shard, Error: err.Error()}})
	}

	// Materialize the wire items: graph items, as the scatter hands every
	// leg.
	type liveItem struct {
		wire int // index into req.Items (= the coordinator's frame index)
		item core.BatchItem
		tr   *obs.Tracer
		sink *core.TopKSink
	}
	var live []liveItem
	for i := range req.Items {
		wi := &req.Items[i]
		tr := obs.NewTracer()
		params, err := clusterParams(wi.Params, wi.Plan, tr)
		if err != nil {
			fail(i, err)
			continue
		}
		q, err := clusterGraph(wi.Genes, wi.Edges)
		if err != nil {
			fail(i, err)
			continue
		}
		li := liveItem{wire: i, tr: tr}
		if wi.K > 0 {
			// Per-(item, shard) local sink: the coordinator merges the
			// shards' local top-k runs, so K stays 0 at the engine level and
			// the sink owns the trim (exactly the in-process shard leg).
			li.sink = core.NewTopKSink(wi.K, params.Alpha)
			li.sink.SetOnAccept(func(a core.Answer) {
				// Called with the sink's lock held: emit and return, no sink
				// methods from here.
				frame(progressFrame, cluster.BatchExecFrame{Accept: &cluster.AcceptFrame{Item: i, Shard: req.Shard, Source: a.Source, Prob: a.Prob}})
			})
			// Registered until the request ends: a push that lands after the
			// item retired raises a sink nobody reads any more.
			key := floorKey{req.QueryID, i}
			s.floors.register(key, li.sink)
			defer s.floors.deregister(key, li.sink)
			params.Sink = li.sink
		}
		li.item = core.BatchItem{Graph: q, Params: params}
		live = append(live, li)
	}
	if len(live) == 0 {
		frame(terminalFrame, cluster.BatchExecFrame{Done: true})
		return
	}

	items := make([]core.BatchItem, len(live))
	for pos := range live {
		items[pos] = live[pos].item
	}
	opts := core.BatchOptions{
		ItemTimeout: itemTimeout,
		OnResult: func(pos int, res core.BatchResult) {
			li := &live[pos]
			fr := cluster.BatchItemFrame{Index: li.wire, Shard: req.Shard}
			if res.Err != nil {
				fr.Error = res.Err.Error()
			} else {
				s.observeQuery("cluster-exec", res.Stats, li.tr)
				fr.Stats = cluster.StatsToWire(res.Stats)
				if li.sink != nil {
					fr.Answers = cluster.AnswersToWire(li.sink.Results())
				} else {
					fr.Answers = cluster.AnswersToWire(res.Answers)
				}
			}
			frame(itemFrame, cluster.BatchExecFrame{Item: &fr})
		},
	}
	if err := s.coord.QueryShardBatch(ctx, local, items, opts); err != nil {
		frame(terminalFrame, cluster.BatchExecFrame{Error: err.Error()})
		return
	}
	frame(terminalFrame, cluster.BatchExecFrame{Done: true})
}

func (s *Server) handleClusterMutate(w http.ResponseWriter, r *http.Request) {
	var req cluster.MutateRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.checkEnvelope(w, req.Proto, req.NumShards) {
		return
	}
	// Placement must agree end to end: the coordinator placed the source
	// on ITS ring; re-derive on ours and reject disagreement rather than
	// placing the source somewhere a future query won't look.
	if want := s.role.Ring.Place(req.Source); want != req.Shard {
		s.error(w, http.StatusBadRequest,
			fmt.Sprintf("placement disagreement: source %d places on shard %d here, request says %d", req.Source, want, req.Shard))
		return
	}
	if s.role.localOf(req.Shard) < 0 {
		s.error(w, http.StatusBadRequest,
			fmt.Sprintf("global shard %d is not hosted here (serving %v)", req.Shard, s.role.Shards))
		return
	}
	release, ok := s.acquire(w)
	if !ok {
		return
	}
	defer release()
	switch req.Op {
	case "add":
		ids := make([]gene.ID, len(req.Genes))
		for i, g := range req.Genes {
			ids[i] = gene.ID(g)
		}
		m, err := gene.NewMatrix(req.Source, ids, req.Columns)
		if err != nil {
			s.error(w, http.StatusBadRequest, err.Error())
			return
		}
		if err := s.eng.AddMatrix(m); err != nil {
			switch {
			case errors.Is(err, shard.ErrSourceExists):
				s.error(w, http.StatusConflict, err.Error())
			case errors.Is(err, shard.ErrMutationTooLarge):
				s.error(w, http.StatusRequestEntityTooLarge, err.Error())
			default:
				s.error(w, http.StatusBadRequest, err.Error())
			}
			return
		}
		s.met.mutations.With("add").Inc()
	case "remove":
		if err := s.eng.RemoveMatrix(req.Source); err != nil {
			if errors.Is(err, shard.ErrSourceNotFound) {
				s.error(w, http.StatusNotFound, err.Error())
				return
			}
			s.error(w, http.StatusInternalServerError, err.Error())
			return
		}
		s.met.mutations.With("remove").Inc()
	default:
		s.error(w, http.StatusBadRequest, fmt.Sprintf("unknown mutation op %q", req.Op))
		return
	}
	s.met.requests.With("cluster-mutate").Inc()
	writeJSON(w, http.StatusOK, cluster.MutateWireResponse{
		Status: "ok", Source: req.Source, Shard: req.Shard, Matrices: s.eng.Matrices(),
	})
}

func (s *Server) handleClusterFloor(w http.ResponseWriter, r *http.Request) {
	var req cluster.FloorRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Proto != cluster.ProtoVersion {
		s.error(w, http.StatusBadRequest,
			fmt.Sprintf("protocol version mismatch: request speaks %d, this server speaks %d", req.Proto, cluster.ProtoVersion))
		return
	}
	n := s.floors.raise(floorKey{req.QueryID, req.Item}, req.Floor)
	s.met.requests.With("cluster-floor").Inc()
	writeJSON(w, http.StatusOK, cluster.FloorResponse{Status: "ok", Sinks: n})
}

func (s *Server) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.error(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	infos := s.coord.Snapshot()
	out := cluster.InfoResponse{
		Proto:     cluster.ProtoVersion,
		Role:      "shard",
		NumShards: s.role.NumShards,
		Shards:    make([]cluster.WireShardInfo, 0, len(infos)),
	}
	for local, info := range infos {
		global := local
		if local < len(s.role.Shards) {
			global = s.role.Shards[local]
		}
		out.Shards = append(out.Shards, cluster.WireShardInfo{
			Global: global, Local: local,
			Sources: info.Sources, Vectors: info.Vectors,
			Queries: info.Queries, Mutations: info.Mutations,
		})
	}
	ds := s.coord.DurableStats()
	out.Gen, out.WarmBoot = ds.Gen, ds.WarmBoot
	s.met.requests.With("cluster-info").Inc()
	writeJSON(w, http.StatusOK, out)
}
