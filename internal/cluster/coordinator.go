// Package cluster is the distributed serving tier (DESIGN.md §15): a
// Coordinator that fans IM-GRN queries, batches and mutations out to
// remote shard servers over HTTP, with consistent-hash placement of
// sources onto global shards (ring.go), R-way replication of every shard
// with hedged replicated reads (client.go, batch.go), coordinator-resolved
// plans and coordinator-inferred query graphs shipped in every request
// envelope (proto.go), and per-item cross-shard top-k floor propagation
// so remote shards early-terminate like in-process ones. Queries run
// through the in-process coordinator's own scatter-gather (shard.Scatter);
// this package supplies its remote leg (batch.go), so the remote answers
// are those of an in-process coordinator, and of a one-shard engine
// (pinned by goldens).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/obs"
	"github.com/imgrn/imgrn/internal/shard"
)

// Coordinator is the scatter-gather front of the distributed serving
// tier: it owns no data, only the topology, the consistent-hash ring and
// an HTTP client, and answers the same Engine surface as the in-process
// shard.Coordinator by fanning each query out to the R replicas of every
// global shard. The determinism contract of DESIGN.md §10 carries over
// unchanged because the scatter is the same scatter: it resolves the
// plan and infers the query graph once, the envelope ships both (plan
// wire format) with the caller's params, and each shard server runs the
// in-process leg on them untouched — so remote answers are a function of
// (database, params) alone, byte-identical to in-process ones at any
// shard count, no matter which replica served each leg.

// ErrShardUnavailable reports a scatter leg that failed on every replica
// of its shard — the documented partial-failure mode: the query returns
// this error rather than a silently incomplete answer set. Matchable
// with errors.Is; the wrapped text names the shard and each replica's
// failure.
var ErrShardUnavailable = errors.New("cluster: shard unavailable on all replicas")

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Topology is the cluster shape (required).
	Topology Topology
	// VirtualNodes per shard on the placement ring (DefaultVirtualNodes
	// when 0). Must match the shard servers' rings.
	VirtualNodes int
	// Client is the RPC client (a default-tuned one when nil).
	Client *Client
	// Registry receives the imgrn_cluster_*/imgrn_rpc_* families (nil
	// disables metrics).
	Registry *obs.Registry
	// HedgeAfter launches a read against the next replica when the
	// current one hasn't answered within this window (250ms when 0;
	// negative disables hedging — failover on error only).
	HedgeAfter time.Duration
	// FloorEvery is the cross-shard top-k floor push cadence (25ms when
	// 0; negative disables floor propagation).
	FloorEvery time.Duration
	// HealthEvery is the membership health-probe cadence (2s when 0).
	HealthEvery time.Duration
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	o.Topology = o.Topology.withDefaults()
	if o.Client == nil {
		o.Client = &Client{}
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 250 * time.Millisecond
	}
	if o.FloorEvery == 0 {
		o.FloorEvery = 25 * time.Millisecond
	}
	if o.HealthEvery <= 0 {
		o.HealthEvery = 2 * time.Second
	}
	return o
}

// Coordinator fans queries, batches and mutations out to remote shard
// servers. Safe for concurrent use.
type Coordinator struct {
	// Scatter answers every query (batch.go): the in-process
	// coordinator's scatter-gather with one remote leg per global shard.
	shard.Scatter

	opts   CoordinatorOptions
	topo   Topology
	ring   *Ring
	client *Client
	met    *Metrics

	qid    atomic.Uint64
	prefix string // process-unique query-ID prefix

	mu      sync.Mutex
	healthy []bool
	infos   []*InfoResponse // last successful probe per server; nil until probed
	probed  bool
	// writeEpoch advances when a write starts and when it ends, and
	// writing counts the writes in flight: a probe that overlapped a write
	// may have counted it before or after the write's own update of infos,
	// so it does not install its counts (see RefreshHealth).
	writeEpoch uint64
	writing    int

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New builds a Coordinator over the topology. It performs no I/O: the
// first health snapshot comes from Start's probe loop (or an on-demand
// probe from Members/Matrices).
func New(opts CoordinatorOptions) (*Coordinator, error) {
	opts = opts.withDefaults()
	if err := opts.Topology.Validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		opts:    opts,
		topo:    opts.Topology,
		ring:    NewRing(opts.Topology.NumShards, opts.VirtualNodes),
		client:  opts.Client,
		met:     NewMetrics(opts.Registry),
		prefix:  fmt.Sprintf("c%d", os.Getpid()),
		healthy: make([]bool, len(opts.Topology.Servers)),
		infos:   make([]*InfoResponse, len(opts.Topology.Servers)),
		stop:    make(chan struct{}),
	}
	c.Scatter = shard.Scatter{Shards: opts.Topology.NumShards, Legs: c.legs}
	c.client.withDefaults(len(opts.Topology.Servers))
	c.client.met = c.met
	c.met.setMembers(len(c.topo.Servers), 0)
	return c, nil
}

// Ring exposes the placement ring (shared with shard servers by
// construction: same NumShards, same VirtualNodes).
func (c *Coordinator) Ring() *Ring { return c.ring }

// Topology returns the cluster shape.
func (c *Coordinator) Topology() Topology { return c.topo }

// NumShards reports the GLOBAL shard count — the same number the
// in-process coordinator reports for an equivalent local deployment, so
// /stats output is deployment-transparent.
func (c *Coordinator) NumShards() int { return c.topo.NumShards }

// Placement reports the global shard the ring places source on. The
// coordinator holds no membership set, so ok reflects placement
// computability (always true), not presence.
func (c *Coordinator) Placement(source int) (int, bool) {
	return c.ring.Place(source), true
}

// Start launches the health-probe loop; Close stops it.
func (c *Coordinator) Start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.opts.HealthEvery)
		defer t.Stop()
		c.RefreshHealth(context.Background())
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.RefreshHealth(context.Background())
			}
		}
	}()
}

// Close stops the probe loop and waits for it and for any floor pushes
// still running (they end with their batches), then closes the idle
// connections of a transport the client made for itself; a caller's own
// http.Client is the caller's to close.
func (c *Coordinator) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	if c.client.own != nil {
		c.client.own.CloseIdleConnections()
	}
	return nil
}

// RefreshHealth probes every server once, in parallel, updating the
// health snapshot and the membership gauges.
func (c *Coordinator) RefreshHealth(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, c.client.Timeout)
	defer cancel()
	c.mu.Lock()
	epoch, quiet := c.writeEpoch, c.writing == 0
	c.mu.Unlock()
	infos := make([]*InfoResponse, len(c.topo.Servers))
	var wg sync.WaitGroup
	for i, url := range c.topo.Servers {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			info, err := c.client.Info(ctx, url)
			if err == nil {
				infos[i] = info
			}
		}(i, url)
	}
	wg.Wait()

	healthyN := 0
	c.mu.Lock()
	// A probe that overlapped a write keeps only its health flags: the
	// cached counts, with the write applied to them, are the better ones,
	// and probed stays as the write left it.
	fresh := quiet && c.writeEpoch == epoch
	for i, info := range infos {
		c.healthy[i] = info != nil
		if info != nil {
			healthyN++
			if fresh {
				c.infos[i] = info
			}
		}
	}
	if fresh {
		c.probed = true
	}
	c.mu.Unlock()
	c.met.setMembers(len(c.topo.Servers), healthyN)
}

// ensureProbed runs one synchronous probe if none has happened yet, so
// Members/Matrices work before Start.
func (c *Coordinator) ensureProbed(ctx context.Context) {
	c.mu.Lock()
	done := c.probed
	c.mu.Unlock()
	if !done {
		c.RefreshHealth(ctx)
	}
}

// Member is one shard server's membership row.
type Member struct {
	// Index and URL identify the server in the topology roster.
	Index int    `json:"index"`
	URL   string `json:"url"`
	// Healthy reports the last probe's outcome; the remaining fields are
	// from the last successful probe (zero before one succeeds).
	Healthy bool  `json:"healthy"`
	Shards  []int `json:"shards"`
	Sources int   `json:"sources"`
	// Gen and WarmBoot surface durable-store state for warm-restart
	// verification.
	Gen      uint64 `json:"gen,omitempty"`
	WarmBoot bool   `json:"warmBoot,omitempty"`
}

// Members returns the membership/health table (probing synchronously if
// the probe loop hasn't run yet).
func (c *Coordinator) Members(ctx context.Context) []Member {
	c.ensureProbed(ctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Member, len(c.topo.Servers))
	for i, url := range c.topo.Servers {
		m := Member{Index: i, URL: url, Healthy: c.healthy[i], Shards: c.topo.ServerShards(i)}
		if info := c.infos[i]; info != nil {
			for _, sh := range info.Shards {
				m.Sources += sh.Sources
			}
			m.Gen, m.WarmBoot = info.Gen, info.WarmBoot
		}
		out[i] = m
	}
	return out
}

// ShardInfos returns one load row per GLOBAL shard assembled from the
// last health snapshot (first replica reporting each shard); unreported
// shards appear as zero rows. The coordinator-mode /stats endpoint is
// built on this, keeping /stats deployment-transparent.
func (c *Coordinator) ShardInfos() []WireShardInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WireShardInfo, c.topo.NumShards)
	seen := make([]bool, c.topo.NumShards)
	for g := range out {
		out[g] = WireShardInfo{Global: g, Local: -1}
	}
	for _, info := range c.infos {
		if info == nil {
			continue
		}
		for _, sh := range info.Shards {
			if sh.Global >= 0 && sh.Global < len(out) && !seen[sh.Global] {
				out[sh.Global] = sh
				seen[sh.Global] = true
			}
		}
	}
	return out
}

// Matrices reports the total indexed sources across global shards (each
// shard counted once, not per replica).
func (c *Coordinator) Matrices() int {
	c.ensureProbed(context.Background())
	total := 0
	for _, sh := range c.ShardInfos() {
		total += sh.Sources
	}
	return total
}

// replicaOrder returns the URLs to try for shard g: the replica set in
// primary-first order, stably rotated so currently-healthy replicas come
// first (an unhealthy primary shouldn't eat the first attempt's timeout
// on every query).
func (c *Coordinator) replicaOrder(g int) []string {
	replicas := c.topo.Replicas(g)
	c.mu.Lock()
	defer c.mu.Unlock()
	urls := make([]string, 0, len(replicas))
	for _, i := range replicas {
		if c.healthy[i] || !c.probed {
			urls = append(urls, c.topo.Servers[i])
		}
	}
	for _, i := range replicas {
		if c.probed && !c.healthy[i] {
			urls = append(urls, c.topo.Servers[i])
		}
	}
	return urls
}

// nextQueryID mints a cluster-unique query ID for floor propagation.
func (c *Coordinator) nextQueryID() string {
	return fmt.Sprintf("%s-%d", c.prefix, c.qid.Add(1))
}

// pushFloors runs the floor-propagation loop of one batch with top-k
// items (sinks is indexed by item, nil for K = 0 items): every FloorEvery
// it pushes each item's floor, if it rose within the tick, to every
// server, so remote sinks raise their local floors and early-terminate
// refinement on the cross-shard Markov bound — the networked version of
// the in-process leg's shared sink. Best-effort by design: the merge is
// computed from item frames only and never depends on a floor push
// landing. last holds each item's floor before any leg started (only
// rises are worth pushing); the caller reads it, because a leg's accepts
// may raise a floor before this goroutine first runs, and a rise read as
// the starting floor would never be pushed. It returns when ctx ends.
func (c *Coordinator) pushFloors(ctx context.Context, queryID string, sinks []*core.TopKSink, last []float64) {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.FloorEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var wg sync.WaitGroup
			for item, sink := range sinks {
				if sink == nil {
					continue
				}
				f := sink.Floor()
				if f <= last[item] {
					continue
				}
				last[item] = f
				c.met.floorUpdate()
				for _, url := range c.topo.Servers {
					wg.Add(1)
					go func(url string, req FloorRequest) {
						defer wg.Done()
						_ = c.client.Floor(ctx, url, &req)
					}(url, FloorRequest{QueryID: queryID, Item: item, Floor: f})
				}
			}
			wg.Wait()
		}
	}
}

// graphToWire extracts an already-inferred query graph.
func graphToWire(q *grn.Graph) (genes []int32, edges []WireEdge) {
	ids := q.Genes()
	genes = make([]int32, len(ids))
	for j, id := range ids {
		genes[j] = int32(id)
	}
	for _, e := range q.Edges() {
		edges = append(edges, WireEdge{S: e.S, T: e.T, Prob: e.P})
	}
	return genes, edges
}

// AddMatrix places m on its ring shard and replicates the add to every
// replica of that shard, all-ack. No automatic retry: adds are not
// idempotent, and a replica that misses the mutation surfaces here as an
// explicit partial-failure error (naming the replicas that did and did
// not ack) rather than as silent divergence.
func (c *Coordinator) AddMatrix(m *gene.Matrix) error {
	ids := m.Genes()
	genes := make([]int32, len(ids))
	cols := make([][]float64, len(ids))
	for j, id := range ids {
		genes[j] = int32(id)
		cols[j] = m.Col(j)
	}
	return c.mutate(&MutateRequest{
		Op: "add", Source: m.Source, Genes: genes, Columns: cols,
	})
}

// RemoveMatrix removes the source from every replica of its ring shard,
// all-ack like AddMatrix.
func (c *Coordinator) RemoveMatrix(source int) error {
	return c.mutate(&MutateRequest{Op: "remove", Source: source})
}

func (c *Coordinator) mutate(req *MutateRequest) error {
	g := c.ring.Place(req.Source)
	req.Shard = g
	req.NumShards = c.topo.NumShards
	replicas := c.topo.Replicas(g)
	ctx, cancel := context.WithTimeout(context.Background(), c.client.Timeout)
	defer cancel()

	c.mu.Lock()
	c.writeEpoch++
	c.writing++
	c.mu.Unlock()
	errs := make([]error, len(replicas))
	var wg sync.WaitGroup
	for i, server := range replicas {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			legReq := *req
			_, err := c.client.Mutate(ctx, url, &legReq)
			errs[i] = err
		}(i, c.topo.Servers[server])
	}
	wg.Wait()

	var failed []error
	acked := 0
	for i, err := range errs {
		if err == nil {
			acked++
		} else {
			failed = append(failed, fmt.Errorf("replica %s: %w", c.topo.Servers[replicas[i]], err))
		}
	}
	delta := 1
	if req.Op == "remove" {
		delta = -1
	}
	c.mu.Lock()
	c.writeEpoch++
	c.writing--
	if acked > 0 && !(len(failed) == 0 && c.applyLocked(g, replicas, delta)) {
		// A partial ack, or a replica whose cached row cannot take the
		// change: make the next snapshot consumer (Matrices, Members)
		// re-probe instead of serving a wrong count.
		c.probed = false
	}
	c.mu.Unlock()
	if len(failed) == 0 {
		return nil
	}
	// Sentinel rejections (source exists / not found) are consistent
	// across replicas when the cluster is in sync; report them as
	// themselves so callers keep their errors.Is checks.
	if acked == 0 {
		return fmt.Errorf("cluster: %s source %d on shard %d failed on all replicas: %w",
			req.Op, req.Source, g, errors.Join(failed...))
	}
	return fmt.Errorf("cluster: %s source %d on shard %d acked by %d/%d replicas (divergent replicas need resync): %w",
		req.Op, req.Source, g, acked, len(replicas), errors.Join(failed...))
}

// applyLocked adds delta to the cached source count of shard g in the
// probe row of each replica, so a fully acked write needs no re-probe. It
// changes nothing and reports false when a replica has no row for g. The
// caller holds c.mu.
func (c *Coordinator) applyLocked(g int, replicas []int, delta int) bool {
	rows := make([]*WireShardInfo, len(replicas))
	for i, server := range replicas {
		info := c.infos[server]
		if info == nil {
			return false
		}
		for j := range info.Shards {
			if info.Shards[j].Global == g {
				rows[i] = &info.Shards[j]
			}
		}
		if rows[i] == nil {
			return false
		}
	}
	for _, row := range rows {
		row.Sources += delta
	}
	return true
}
