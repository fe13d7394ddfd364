package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/imgrn/imgrn/internal/gene"
)

// span is one node of an op's trace tree. The root ("client.request") is
// timed by the load generator; its children are the stage spans the server
// returned in the response's "trace" block, with begin offsets relative to
// the server's trace start. All spans of an op share its ordinal.
type span struct {
	Op      int     `json:"op"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for the root
	Name    string  `json:"name"`
	BeginMS float64 `json:"begin_ms"`
	DurMS   float64 `json:"dur_ms"`
	In      int     `json:"in"`
	Out     int     `json:"out"`
}

// tableRow is one exclusive row of the layer table.
type tableRow struct {
	Layer string  `json:"layer"`
	MS    float64 `json:"ms_per_op"`
	Share float64 `json:"share"`
}

// stageLayer maps a server stage name to the layer row it is charged to.
var stageLayer = map[string]string{
	"plan":         "plan",
	"infer":        "grn.infer",
	"infer_kernel": "grn.infer_kernel",
	"traverse":     "core.traverse",
	"filter":       "core.filter",
	"markov_prune": "core.markov",
	"monte_carlo":  "core.monte_carlo",
	"topk":         "core.topk",
	"scatter":      "shard.scatter",
	"merge":        "shard.merge",
	"batch":        "core.batch",
}

// tableOrder fixes the row order of the layer table (pipeline order, the
// remainder last).
var tableOrder = []string{"plan", "core.batch", "grn.infer", "grn.infer_kernel", "shard.scatter",
	"core.traverse", "core.filter", "core.markov", "core.monte_carlo",
	"shard.merge", "core.topk", "cluster.hop", "server.residual"}

// tracedOp is one decoded response of the traced pass.
type tracedOp struct {
	ordinal int
	latMS   float64
	totalMS float64 // the server's own totalSeconds
	stats   []queryStats
	spans   []spanJSON
	batch   bool
	groups  int
}

// decodeTraced decodes a /query reply or the NDJSON frames of a
// /query-batch reply.
func decodeTraced(k kept, batch bool) (tracedOp, error) {
	t := tracedOp{ordinal: k.ordinal, latMS: k.latMS, batch: batch}
	if !batch {
		var r queryResponse
		if err := json.Unmarshal(k.body, &r); err != nil {
			return t, err
		}
		t.totalMS = 1000 * r.Stats.TotalSeconds
		t.stats = []queryStats{r.Stats}
		t.spans = r.Trace
		return t, nil
	}
	frames, err := batchFrames(k.body)
	if err != nil {
		return t, err
	}
	for _, f := range frames {
		switch {
		case f.Done:
			t.totalMS = 1000 * f.TotalSeconds
			t.groups = f.Groups
		case f.Stats != nil:
			t.stats = append(t.stats, *f.Stats)
			t.spans = append(t.spans, f.Trace...)
		}
	}
	return t, nil
}

// spanTree turns one op into its span tree. Two conventions of the
// server's trace are undone so that spans are intervals: markov_prune and
// monte_carlo are recorded as aggregates that both begin at the start of
// refinement, so monte_carlo is moved behind markov_prune; and without a
// scatter span (one shard) the two are aggregate CPU time over the
// request's workers, so they are scaled to fit the refinement wall time the
// stats block reports. A batch reply's item traces hang under one "batch"
// span as long as the terminal frame's totalSeconds; what the items leave
// uncovered of it is the batch engine's own grouping, framing and encoding.
func spanTree(t tracedOp) []span {
	tree := []span{{Op: t.ordinal, ID: 0, Parent: -1, Name: "client.request", DurMS: t.latMS}}
	top := 0 // parent of the spans that nest in no other stage
	if t.batch {
		tree = append(tree, span{Op: t.ordinal, ID: 1, Parent: 0, Name: "batch", DurMS: t.totalMS,
			In: len(t.stats), Out: len(t.stats)})
		top = 1
	}
	hasScatter := false
	for _, s := range t.spans {
		if s.Stage == "scatter" {
			hasScatter = true
		}
	}
	scale := 1.0
	if !hasScatter {
		agg, wall := 0.0, 0.0
		for _, s := range t.spans {
			if s.Stage == "markov_prune" || s.Stage == "monte_carlo" {
				agg += s.DurSeconds
			}
		}
		for _, st := range t.stats {
			wall += st.RefinementSeconds
		}
		if agg > wall && agg > 0 {
			scale = wall / agg
		}
	}
	markovEnd := map[float64]float64{} // refinement start → end of its markov span
	for _, s := range t.spans {
		if s.Stage == "markov_prune" {
			markovEnd[s.BeginSeconds] = s.BeginSeconds + s.DurSeconds*scale
		}
	}
	for _, s := range t.spans {
		sp := span{Op: t.ordinal, ID: len(tree), Name: s.Stage,
			BeginMS: 1000 * s.BeginSeconds, DurMS: 1000 * s.DurSeconds, In: s.In, Out: s.Out}
		switch s.Stage {
		case "markov_prune":
			sp.DurMS *= scale
		case "monte_carlo":
			sp.DurMS *= scale
			if end, ok := markovEnd[s.BeginSeconds]; ok {
				sp.BeginMS = 1000 * end
			}
		}
		tree = append(tree, sp)
	}
	// Parents: infer_kernel nests in infer; the per-shard pipeline stages
	// nest in scatter; everything else hangs off the root.
	for i := top + 1; i < len(tree); i++ {
		want := ""
		switch tree[i].Name {
		case "infer_kernel":
			want = "infer"
		case "traverse", "filter", "markov_prune", "monte_carlo":
			want = "scatter"
		}
		tree[i].Parent = top
		for j := top + 1; j < len(tree) && want != ""; j++ {
			p := tree[j]
			if p.Name == want && tree[i].BeginMS >= p.BeginMS-1e-6 && tree[i].BeginMS <= p.BeginMS+p.DurMS+1e-6 {
				tree[i].Parent = j
				break
			}
		}
	}
	return tree
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, lo
	for _, x := range iv {
		a, b := max(x[0], end), min(x[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// allocate charges budget milliseconds of wall time to the subtree under
// tree[id]: the span's self time (its duration minus what its children
// cover) stays with its own layer, and the covered part is divided among
// the children in proportion to their durations — children of one parent
// may run in parallel or, in a batch, be several views of one shared
// traversal, so their durations add up to more than they cover.
func allocate(tree []span, id int, budget float64, rows map[string]float64) {
	sp := tree[id]
	var kids []int
	var iv [][2]float64
	kidSum := 0.0
	for i := range tree {
		if tree[i].Parent == id && tree[i].DurMS > 0 {
			kids = append(kids, i)
			iv = append(iv, [2]float64{tree[i].BeginMS, tree[i].BeginMS + tree[i].DurMS})
			kidSum += tree[i].DurMS
		}
	}
	layer := "server.residual"
	if id != 0 {
		layer = stageLayer[sp.Name]
		if layer == "" {
			layer = sp.Name
		}
	}
	cover := 0.0
	if id == 0 || sp.Name == "batch" {
		// The children's offsets are relative to the server's trace start
		// (of each item, in a batch), which cannot be placed inside this
		// span's own interval; only the length they cover is used.
		cover = min(covered(iv, math.Inf(-1), math.Inf(1)), sp.DurMS)
	} else {
		cover = covered(iv, sp.BeginMS, sp.BeginMS+sp.DurMS)
	}
	if sp.DurMS <= 0 {
		return
	}
	f := budget / sp.DurMS
	rows[layer] += (sp.DurMS - cover) * f
	for _, k := range kids {
		allocate(tree, k, cover*f*tree[k].DurMS/kidSum, rows)
	}
}

// layerTable describes the median request: it averages the per-op
// allocations of the reads whose latency lies between the first and third
// quartile, and closes the table on the median latency by putting what is
// left into server.residual, so the rows sum to the median exactly.
func layerTable(opRows []map[string]float64, lat []float64, p50 float64) []tableRow {
	lo, hi := percentile(lat, 25), percentile(lat, 75)
	rows := map[string]float64{}
	n := 0
	for i, r := range opRows {
		if lat[i] < lo || lat[i] > hi {
			continue
		}
		n++
		for layer, v := range r {
			rows[layer] += v
		}
	}
	sum := 0.0
	for layer := range rows {
		rows[layer] /= float64(n)
		if layer != "server.residual" {
			sum += rows[layer]
		}
	}
	rows["server.residual"] = p50 - sum
	var out []tableRow
	for _, layer := range tableOrder {
		if v, ok := rows[layer]; ok {
			out = append(out, tableRow{Layer: layer, MS: v, Share: ratio(v, p50)})
		}
	}
	return out
}

// tracedPass runs the second, shorter pass of a workload: one client, a
// fixed op count, "trace": true on every query, every response decoded,
// /metrics scraped on every process before and after. It fills the
// per-layer metrics and the layer table and writes the span file.
func tracedPass(ctx context.Context, env *environment, d *deployment, in *inputs, cfg runConfig, res *workloadResult) (*phaseResult, error) {
	w := in.w
	before, err := scrapeAll(ctx, d)
	if err != nil {
		return nil, err
	}
	ph, err := runPhase(ctx, phaseSpec{
		in: in, url: d.front.url, phase: phaseTraced, clients: 1, traced: true,
		ops: cfg.scale(w.tracedOps), budget: 60 * time.Second, keepAll: true, pids: d.pids(),
	})
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll(ctx, d)
	if err != nil {
		return nil, err
	}
	if len(ph.kept) == 0 {
		return nil, fmt.Errorf("%s: the traced pass answered no read: %v", w.name, ph.errors)
	}
	// all sums the deltas of every process; front is the coordinator's
	// (or the only server's) alone.
	all, front := promSample{}, promSample{}
	for i, p := range d.procs {
		delta := after[i].sub(before[i])
		all.add(delta)
		if p == d.front {
			front = delta
		}
	}

	ops := make([]tracedOp, 0, len(ph.kept))
	for _, k := range ph.kept {
		t, err := decodeTraced(k, w.batch)
		if err != nil {
			return nil, fmt.Errorf("%s: decoding traced reply of op %d: %w", w.name, k.ordinal, err)
		}
		ops = append(ops, t)
	}
	reads := float64(len(ops))
	res.Counts["traced_ops"] = ph.attempted
	res.Counts["traced_reads"] = len(ops)

	// Stage time per read, from the stage histograms of every process.
	for stage, name := range map[string]string{
		"plan": "plan.ms_per_op", "infer": "grn.infer_ms_per_op", "infer_kernel": "grn.infer_kernel_ms_per_op",
		"traverse": "core.traverse_ms_per_op", "filter": "core.filter_ms_per_op",
		"markov_prune": "core.markov_ms_per_op", "monte_carlo": "core.monte_carlo_ms_per_op",
		"batch": "core.batch_ms_per_op", "scatter": "shard.scatter_ms_per_op",
		"merge": "shard.merge_ms_per_op", "topk": "core.topk_ms_per_op",
	} {
		res.setLayer(name, 1000*all[stageSum(stage)]/reads)
	}

	// Work counts and waste ratios from the stats blocks; exact, because
	// one client sends a fixed sequence.
	var st queryStats
	var lat, total []float64
	groups := 0
	for _, t := range ops {
		lat = append(lat, t.latMS)
		total = append(total, t.totalMS)
		groups += t.groups
		for _, s := range t.stats {
			st.NodePairsVisited += s.NodePairsVisited
			st.NodePairsPruned += s.NodePairsPruned
			st.PointPairsChecked += s.PointPairsChecked
			st.PointPairsPruned += s.PointPairsPruned
			st.CandidateMatrices += s.CandidateMatrices
			st.MatricesPrunedL5 += s.MatricesPrunedL5
			st.Answers += s.Answers
			st.IOPages += s.IOPages
			st.IOBufferHits += s.IOBufferHits
			st.CacheHits += s.CacheHits
			st.CacheMisses += s.CacheMisses
		}
	}
	res.setLayer("core.node_pairs_per_op", float64(st.NodePairsVisited)/reads)
	res.setLayer("core.node_pairs_pruned_ratio", ratio(float64(st.NodePairsPruned), float64(st.NodePairsPruned+st.NodePairsVisited)))
	res.setLayer("core.point_pairs_per_op", float64(st.PointPairsChecked)/reads)
	res.setLayer("core.point_pairs_pruned_ratio", ratio(float64(st.PointPairsPruned), float64(st.PointPairsChecked)))
	res.setLayer("core.candidates_per_op", float64(st.CandidateMatrices)/reads)
	res.setLayer("core.answers_per_candidate", ratio(float64(st.Answers), float64(st.CandidateMatrices-st.MatricesPrunedL5)))
	res.setLayer("core.cache_hit_ratio", ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)))
	res.setLayer("pagestore.pages_per_op", float64(st.IOPages)/reads)
	res.setLayer("pagestore.buffer_hit_ratio", ratio(float64(st.IOBufferHits), float64(st.IOPages+st.IOBufferHits)))
	res.setLayer("core.batch_groups_per_request", float64(groups)/reads)

	// Serve path.
	p50 := median(lat)
	res.setLayer("server.overhead_ms", p50-median(total))
	res.setLayer("server.resp_kb_per_op", float64(ph.respBytes)/float64(ph.attempted-ph.failed)/1024)

	// Durability: WAL and snapshot counters of every durable process.
	writes, userBytes := tracedWrites(in, ph.attempted)
	res.setLayer("wal.appends", all["imgrn_wal_appends_total"])
	res.setLayer("wal.fsyncs_per_write", ratio(all["imgrn_wal_fsyncs_total"], writes))
	res.setLayer("wal.bytes_per_user_byte", ratio(all["imgrn_wal_append_bytes_total"], userBytes))
	last := promSample{}
	for _, s := range after {
		last.add(s)
	}
	res.setLayer("shard.checkpoints", last["imgrn_snapshot_checkpoints_total"])
	durable := 0.0
	for _, s := range after {
		if _, ok := s["imgrn_snapshot_last_bytes"]; ok {
			durable++
		}
	}
	res.setLayer("shard.checkpoint_ms_last", ratio(last["imgrn_snapshot_last_duration_ms"], durable))
	res.setLayer("shard.snapshot_bytes_per_user_byte", ratio(last["imgrn_snapshot_last_bytes"], float64(in.dbBytes)))

	// Cluster tier, from the coordinator's RPC families.
	legs := front["imgrn_rpc_seconds_count"]
	res.setLayer("cluster.legs_per_op", legs/float64(ph.attempted))
	rpcMS := 1000 * ratio(front["imgrn_rpc_seconds_sum"], legs)
	res.setLayer("cluster.rpc_ms_per_leg", rpcMS)
	shardQuery := 0.0
	if w.deploy == deployCluster {
		shardQuery = all["imgrn_query_seconds_sum"] - front["imgrn_query_seconds_sum"]
	}
	hopMS := 1000 * ratio(front["imgrn_rpc_seconds_sum"]-shardQuery, legs)
	res.setLayer("cluster.hop_ms_per_leg", hopMS)
	// The measured phase's hedges and retries are already in; add the
	// traced pass's own.
	res.setLayer("cluster.hedges", res.PerLayer["cluster.hedges"].Value+front["imgrn_rpc_hedges_total"])
	res.setLayer("cluster.retries", res.PerLayer["cluster.retries"].Value+front["imgrn_rpc_retries_total"])

	// Layer table and span file.
	opRows := make([]map[string]float64, len(ops))
	var spans []span
	for i, t := range ops {
		tree := spanTree(t)
		spans = append(spans, tree...)
		opRows[i] = map[string]float64{}
		if w.deploy == deployCluster {
			allocateCluster(t, ratio(hopMS, rpcMS), opRows[i])
		} else {
			allocate(tree, 0, t.latMS, opRows[i])
		}
	}
	res.LayerTable = layerTable(opRows, lat, p50)
	res.setLayer("server.residual_ms_per_op", res.LayerTable[len(res.LayerTable)-1].MS)
	return ph, writeSpans(env, w.name, cfg.seed, spans)
}

// allocateCluster is allocate for a coordinator's reply. Its trace stops
// at the process boundary, so the split comes from aggregates: the time
// outside the coordinator's own total is the remainder, inference is the
// coordinator's, and the gather (total − infer) is divided between the hop
// (hopShare, from the RPC and shard-side latency histograms) and the
// shard-side stage times the merged stats block carries.
func allocateCluster(t tracedOp, hopShare float64, rows map[string]float64) {
	st := t.stats[0]
	infer := 1000 * st.InferSeconds
	gather := max(t.totalMS-infer, 0)
	rows["server.residual"] += t.latMS - t.totalMS
	rows["grn.infer"] += infer
	rows["cluster.hop"] += gather * hopShare
	engine := gather * (1 - hopShare)
	trav, mk, mc := st.TraversalSeconds, st.MarkovSeconds, st.MonteCarloSeconds
	sum := trav + mk + mc
	if sum <= 0 {
		rows["cluster.hop"] += engine
		return
	}
	rows["core.traverse"] += engine * trav / sum
	rows["core.markov"] += engine * mk / sum
	rows["core.monte_carlo"] += engine * mc / sum
}

// tracedWrites replays the traced stream to count its writes and the
// bytes of user data (binary matrix encodings) its adds carried.
func tracedWrites(in *inputs, ops int) (writes, userBytes float64) {
	s := newStream(in, phaseTraced, 0, 1, true)
	for i := 0; i < ops; i++ {
		switch o := s.next(); o.kind {
		case opAdd:
			writes++
			userBytes += float64(matrixBytes(in.addMatrix[o.source%addTemplates]))
		case opRemove:
			writes++
		}
	}
	return writes, userBytes
}

// matrixBytes is the size of a matrix in the database's binary encoding.
func matrixBytes(m *gene.Matrix) int {
	var buf bytes.Buffer
	if err := gene.WriteMatrix(&buf, m); err != nil {
		return 0
	}
	return buf.Len()
}

func scrapeAll(ctx context.Context, d *deployment) ([]promSample, error) {
	out := make([]promSample, len(d.procs))
	for i, p := range d.procs {
		s, err := scrapeMetrics(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", p.name, err)
		}
		out[i] = s
	}
	return out, nil
}

// writeSpans writes the spans of a traced pass to
// benchmark/out/trace-<workload>.json.
func writeSpans(env *environment, workload string, seed uint64, spans []span) error {
	dir := filepath.Join(env.benchDir, "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
