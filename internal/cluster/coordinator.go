// Package cluster is the distributed serving tier (DESIGN.md §15): a
// scatter-gather Coordinator that fans IM-GRN queries, batches and
// mutations out to remote shard servers over HTTP, with consistent-hash
// placement of sources onto global shards (ring.go), R-way replication
// of every shard with hedged replicated reads (client.go,
// coordinator.go), coordinator-resolved plans shipped in every request
// envelope (proto.go), and cross-shard top-k floor propagation so remote
// shards early-terminate like in-process ones. The in-process
// shard.Coordinator is the single-node degenerate case of the same code
// path: at the same shard count and placement the remote answers are
// byte-identical (pinned by goldens).
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
)

// Coordinator is the scatter-gather front of the distributed serving
// tier: it owns no data, only the topology, the consistent-hash ring and
// an HTTP client, and answers the same Engine surface as the in-process
// shard.Coordinator by fanning each query out to the R replicas of every
// global shard. The determinism contract of DESIGN.md §10 carries over
// unchanged because the scatter legs are the same legs: the coordinator
// resolves the plan once, ships it (plan wire format) with the base seed
// in every envelope, and each shard server derives SeedFrom(Seed,
// globalShard) exactly as the in-process scatter does — so at the same
// shard count and placement, remote answers are byte-identical to
// in-process ones no matter which replica served each leg.

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
	// ImbalanceRatio and OnImbalance mirror shard.Options: the rebalance
	// hook fires after a health probe that finds the most loaded global
	// shard holding more than ImbalanceRatio times the sources of the
	// least loaded one (2 when <= 1).
	ImbalanceRatio float64
	OnImbalance    func(loads []int)
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
	if o.ImbalanceRatio <= 1 {
		o.ImbalanceRatio = 2
	}
	return o
}

// Coordinator fans queries, batches and mutations out to remote shard
// servers. Safe for concurrent use.
type Coordinator struct {
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
	c.client.withDefaults()
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

// Close stops the probe loop and waits for it.
func (c *Coordinator) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	return nil
}

// RefreshHealth probes every server once, in parallel, updating the
// health snapshot, the membership gauges and the imbalance signal.
func (c *Coordinator) RefreshHealth(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, c.client.Timeout)
	defer cancel()
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
	for i, info := range infos {
		c.healthy[i] = info != nil
		if info != nil {
			c.infos[i] = info
			healthyN++
		}
	}
	c.probed = true
	c.mu.Unlock()
	c.met.setMembers(len(c.topo.Servers), healthyN)
	c.checkImbalance()
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

// Loads returns per-GLOBAL-shard source counts assembled from the last
// health snapshot: for each shard, the first replica that reported it.
// Shards no replica has reported yet count zero.
func (c *Coordinator) Loads() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loadsLocked()
}

func (c *Coordinator) loadsLocked() []int {
	loads := make([]int, c.topo.NumShards)
	seen := make([]bool, c.topo.NumShards)
	for _, info := range c.infos {
		if info == nil {
			continue
		}
		for _, sh := range info.Shards {
			if sh.Global >= 0 && sh.Global < len(loads) && !seen[sh.Global] {
				loads[sh.Global] = sh.Sources
				seen[sh.Global] = true
			}
		}
	}
	return loads
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
	for _, n := range c.Loads() {
		total += n
	}
	return total
}

// checkImbalance mirrors shard.Coordinator's rebalance signal over the
// remote per-shard loads.
func (c *Coordinator) checkImbalance() {
	if c.topo.NumShards < 2 {
		return
	}
	loads := c.Loads()
	minLoad, maxLoad := loads[0], loads[0]
	for _, l := range loads[1:] {
		if l < minLoad {
			minLoad = l
		}
		if l > maxLoad {
			maxLoad = l
		}
	}
	imbalanced := false
	if minLoad == 0 {
		imbalanced = maxLoad > 1
	} else {
		imbalanced = float64(maxLoad) > c.opts.ImbalanceRatio*float64(minLoad)
	}
	if imbalanced {
		c.met.rebalanceSignal()
		if c.opts.OnImbalance != nil {
			c.opts.OnImbalance(loads)
		}
	}
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

// execShard runs one scatter leg — global shard g of req — with hedged
// replicated reads: the primary-ordered healthy replicas are tried with
// an attempt launched immediately, another after each HedgeAfter of
// silence, and an immediate failover on error; the first success wins
// and cancels the rest. Accept frames from duplicate attempts are the
// caller's to dedup (by source). Every replica failing yields
// ErrShardUnavailable.
func (c *Coordinator) execShard(ctx context.Context, g int, req ExecRequest, onAccept func(AcceptFrame)) (*ExecDone, error) {
	req.Shard = g
	urls := c.replicaOrder(g)
	if len(urls) == 0 {
		return nil, fmt.Errorf("%w: shard %d has no replicas", ErrShardUnavailable, g)
	}
	attemptCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		done    *ExecDone
		err     error
		attempt int
	}
	ch := make(chan result, len(urls))
	launched := 0
	launch := func() {
		attempt := launched
		url := urls[attempt]
		launched++
		legReq := req // per-attempt copy: Exec stamps Proto on its argument
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			done, err := c.client.Exec(attemptCtx, url, &legReq, onAccept)
			ch <- result{done, err, attempt}
		}()
	}
	launch()

	var hedge <-chan time.Time
	if c.opts.HedgeAfter > 0 {
		t := time.NewTimer(c.opts.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	pending := 1
	var errs []error
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedge:
			hedge = nil
			if launched < len(urls) {
				c.met.hedge()
				launch()
				pending++
			}
		case r := <-ch:
			pending--
			if r.err == nil {
				if r.attempt > 0 {
					c.met.hedgeWin()
				}
				return r.done, nil
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			errs = append(errs, fmt.Errorf("replica %s: %w", urls[r.attempt], r.err))
			if launched < len(urls) {
				launch()
				pending++
			} else if pending == 0 {
				return nil, fmt.Errorf("%w: shard %d: %w", ErrShardUnavailable, g, errors.Join(errs...))
			}
		}
	}
}

// floorTracker dedups streamed accept frames by source and maintains the
// coordinator's view of the global top-k floor. Dedup is load-bearing,
// not cosmetic: hedged (or retried) attempts replay a shard's accepts,
// and double-offering a source would over-raise the floor past the true
// global k-th best — which prunes real answers on other shards.
type floorTracker struct {
	mu   sync.Mutex
	seen map[int]struct{}
	sink *core.TopKSink
}

func newFloorTracker(k int, alpha float64) *floorTracker {
	return &floorTracker{seen: make(map[int]struct{}), sink: core.NewTopKSink(k, alpha)}
}

func (f *floorTracker) accept(fr AcceptFrame) {
	f.mu.Lock()
	if _, dup := f.seen[fr.Source]; !dup {
		f.seen[fr.Source] = struct{}{}
		f.sink.Offer(core.Answer{Source: fr.Source, Prob: fr.Prob})
	}
	f.mu.Unlock()
}

func (f *floorTracker) floor() float64 { return f.sink.Floor() }

// pushFloors runs the floor-propagation loop for one live top-k scatter:
// every FloorEvery it pushes a risen global floor to every server, so
// remote sinks raise their local floors and early-terminate refinement
// on the cross-shard Markov bound — the networked version of the shared
// in-process sink. Best-effort by design: the terminal merge is computed
// from Done frames only and never depends on a floor push landing.
func (c *Coordinator) pushFloors(ctx context.Context, queryID string, ft *floorTracker, stop <-chan struct{}) {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.FloorEvery)
	defer t.Stop()
	last := ft.floor() // the alpha floor; only rises are worth pushing
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-t.C:
			f := ft.floor()
			if f <= last {
				continue
			}
			last = f
			req := FloorRequest{QueryID: queryID, Floor: f}
			var wg sync.WaitGroup
			for _, url := range c.topo.Servers {
				wg.Add(1)
				go func(url string) {
					defer wg.Done()
					r := req
					_ = c.client.Floor(ctx, url, &r)
				}(url)
			}
			wg.Wait()
			c.met.floorUpdate()
		}
	}
}

// scatter fans proto out over all global shards (Shard stamped per leg)
// and gathers the terminal frames in shard order. k > 0 additionally
// runs the floor-propagation machinery. The first failed leg cancels the
// rest and surfaces as the scatter's error (partial results are never
// returned).
func (c *Coordinator) scatter(ctx context.Context, proto ExecRequest, k int, alpha float64) ([]*ExecDone, error) {
	c.met.scatter()
	P := c.topo.NumShards
	scatterCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var onAccept func(AcceptFrame)
	if k > 0 && c.opts.FloorEvery > 0 {
		ft := newFloorTracker(k, alpha)
		onAccept = ft.accept
		stop := make(chan struct{})
		defer close(stop)
		c.wg.Add(1)
		go c.pushFloors(scatterCtx, proto.QueryID, ft, stop)
	}

	dones := make([]*ExecDone, P)
	errs := make([]error, P)
	var wg sync.WaitGroup
	for g := 0; g < P; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			done, err := c.execShard(scatterCtx, g, proto, onAccept)
			if err != nil {
				errs[g] = err
				cancel() // first failure aborts the in-flight legs
				return
			}
			dones[g] = done
		}(g)
	}
	wg.Wait()
	// Report the root cause, not the fallout: the first leg to fail
	// cancels its in-flight siblings, so sibling legs surface
	// context.Canceled. Prefer a leg whose error is its own.
	firstG, firstErr := -1, error(nil)
	for g, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil || (errors.Is(firstErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
			firstG, firstErr = g, err
		}
	}
	if firstErr != nil {
		if errors.Is(firstErr, ErrShardUnavailable) {
			c.met.partialFailure()
		}
		return nil, fmt.Errorf("cluster: scatter leg %d: %w", firstG, firstErr)
	}
	return dones, nil
}

// matrixToWire extracts the query matrix payload (queries are source -1
// server-side, mirroring the HTTP handlers).
func matrixToWire(mq *gene.Matrix) (genes []int32, columns [][]float64) {
	ids := mq.Genes()
	genes = make([]int32, len(ids))
	columns = make([][]float64, len(ids))
	for j, id := range ids {
		genes[j] = int32(id)
		columns[j] = mq.Col(j)
	}
	return genes, columns
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

// planOnce validates params and resolves the execution plan — the
// coordinator-side decision point; shards only execute.
func (c *Coordinator) planOnce(params core.Params) (core.Params, error) {
	if err := params.Validate(); err != nil {
		return params, err
	}
	return params.ResolvePlan()
}

// protoFor assembles the shard-independent part of an exec envelope.
func (c *Coordinator) protoFor(kind string, genes []int32, columns [][]float64, edges []WireEdge, params core.Params, k int) (ExecRequest, error) {
	req := ExecRequest{
		QueryID:   c.nextQueryID(),
		Kind:      kind,
		NumShards: c.topo.NumShards,
		K:         k,
		Genes:     genes,
		Columns:   columns,
		Edges:     edges,
		Params:    ParamsToWire(params),
	}
	if params.Plan != nil {
		encoded, err := params.Plan.EncodeWire()
		if err != nil {
			return req, err
		}
		req.Plan = encoded
	}
	if c.topo.NumShards == 1 {
		// The P=1 degenerate case: the single shard runs the caller's
		// params untouched on the unsharded sequential path, exactly like
		// the in-process coordinator; top-k ranks at the coordinator.
		req.Solo = true
		req.K = 0
	}
	return req, nil
}

// gather merges the terminal frames into the final answer set and the
// aggregate stats, mirroring shard.Coordinator's merge exactly: K-less
// scatters concatenate the source-ascending per-shard runs (placement
// partitions the sources, so a k-way merge of shard-ordered runs is the
// engine's answer order); top-k scatters offer every shard's local top-k
// into a fresh bounded sink — correct because a shard's members of the
// global top-k are necessarily within its local top-k.
func (c *Coordinator) gather(dones []*ExecDone, params core.Params, k int, start time.Time) ([]core.Answer, core.Stats) {
	var answers []core.Answer
	if k > 0 {
		sink := core.NewTopKSink(k, params.Alpha)
		for _, d := range dones {
			for _, wa := range d.Answers {
				sink.Offer(wa.Answer())
			}
		}
		answers = sink.Results()
	} else {
		runs := make([][]core.Answer, len(dones))
		for i, d := range dones {
			runs[i] = AnswersFromWire(d.Answers)
		}
		answers = core.MergeAnswerRuns(runs)
	}

	var st core.Stats
	shardStats := make([]core.Stats, len(dones))
	for i, d := range dones {
		shardStats[i] = d.Stats.Stats()
	}
	core.MergeScatterStats(&st, shardStats)
	// Query-graph inference ran identically on every shard server (base
	// seed, query matrix only); report shard 0's run once, like the
	// in-process inferOnce.
	if inf := dones[0].Infer; inf != nil {
		ist := inf.Stats()
		st.InferQuery = ist.InferQuery
		st.QueryVertices = ist.QueryVertices
		st.QueryEdges = ist.QueryEdges
	} else {
		st.QueryVertices = dones[0].Stats.QueryVertices
		st.QueryEdges = dones[0].Stats.QueryEdges
	}
	st.Plan = params.Plan
	st.Total = time.Since(start)
	return answers, st
}

// soloResult unwraps the P=1 terminal frame: the single leg ran the full
// unsharded query, so its run and stats pass through whole.
func soloResult(done *ExecDone, params core.Params, k int, start time.Time) ([]core.Answer, core.Stats) {
	answers := AnswersFromWire(done.Answers)
	if k > 0 {
		core.RankAnswers(answers)
		if len(answers) > k {
			answers = answers[:k]
		}
	}
	st := done.Stats.Stats()
	if inf := done.Infer; inf != nil {
		st.InferQuery = inf.Stats().InferQuery
	}
	st.Plan = params.Plan
	st.Total = time.Since(start)
	return answers, st
}

// QueryContext answers an IM-GRN feature-matrix query scatter-gather
// over the cluster. The query matrix ships to every shard server, each
// of which infers the query GRN locally at the base seed (inference
// reads only the query matrix, so every server derives the identical
// graph) and executes its shard leg at the derived seed.
func (c *Coordinator) QueryContext(ctx context.Context, mq *gene.Matrix, params core.Params) ([]core.Answer, core.Stats, error) {
	return c.queryMatrix(ctx, mq, params, 0)
}

// QueryTopKContext answers a feature-matrix query keeping the k best
// matches, with remote floor propagation standing in for the shared
// in-process sink. k <= 0 ranks all matches.
func (c *Coordinator) QueryTopKContext(ctx context.Context, mq *gene.Matrix, params core.Params, k int) ([]core.Answer, core.Stats, error) {
	if k <= 0 {
		answers, st, err := c.QueryContext(ctx, mq, params)
		if err != nil {
			return nil, st, err
		}
		in := len(answers)
		mark := params.Trace.Start(obs.StageTopK)
		core.RankAnswers(answers)
		mark.End(in, len(answers))
		return answers, st, nil
	}
	return c.queryMatrix(ctx, mq, params, k)
}

func (c *Coordinator) queryMatrix(ctx context.Context, mq *gene.Matrix, params core.Params, k int) ([]core.Answer, core.Stats, error) {
	params, err := c.planOnce(params)
	if err != nil {
		return nil, core.Stats{}, err
	}
	start := time.Now()
	genes, columns := matrixToWire(mq)
	proto, err := c.protoFor(KindMatrix, genes, columns, nil, params, k)
	if err != nil {
		return nil, core.Stats{}, err
	}
	dones, err := c.scatter(ctx, proto, k, params.Alpha)
	if err != nil {
		return nil, core.Stats{}, err
	}
	if proto.Solo {
		answers, st := soloResult(dones[0], params, k, start)
		return answers, st, nil
	}
	answers, st := c.gather(dones, params, k, start)
	return answers, st, nil
}

// QueryGraphContext answers a query for an already-inferred query GRN
// scatter-gather over the cluster.
func (c *Coordinator) QueryGraphContext(ctx context.Context, q *grn.Graph, params core.Params) ([]core.Answer, core.Stats, error) {
	params, err := c.planOnce(params)
	if err != nil {
		return nil, core.Stats{}, err
	}
	start := time.Now()
	genes, edges := graphToWire(q)
	proto, err := c.protoFor(KindGraph, genes, nil, edges, params, 0)
	if err != nil {
		return nil, core.Stats{}, err
	}
	dones, err := c.scatter(ctx, proto, 0, params.Alpha)
	if err != nil {
		return nil, core.Stats{}, err
	}
	if proto.Solo {
		answers, st := soloResult(dones[0], params, 0, start)
		return answers, st, nil
	}
	answers, st := c.gather(dones, params, 0, start)
	return answers, st, nil
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
	if len(failed) == 0 {
		// The cached health snapshot now miscounts the mutated shard;
		// make the next snapshot consumer (Matrices, Members) re-probe
		// instead of serving pre-mutation loads.
		c.mu.Lock()
		c.probed = false
		c.mu.Unlock()
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
