package main

import (
	"bytes"
	"encoding/json"
)

// metricDef describes one reported metric. The catalog below is the single
// list of names, units, directions and bounds; BENCHMARK.json and the
// README glossary are checked against it by the unit tests.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the baseline a metric may worsen by; 0 for per-layer metrics
	// moves names, for a per-layer metric, the end-to-end metric and the
	// workloads it is expected to move (every row also feeds cpu_ms_per_op
	// there); for an end-to-end metric it is empty.
	moves string
	doc   string
}

// endToEnd are the metrics defined on every workload; they are the
// end_to_end list of BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "", "spawn of every server process → every /healthz answers 200, median of 5 boots from the database file alone"},
	{"qps", "1/s", "higher", 0.25, "", "successful query items per second of the measured phase (a batch of 8 counts 8; the time includes the writes beside them)"},
	{"p50_ms", "ms", "lower", 0.25, "", "client-observed latency of a read request, median"},
	{"p99_ms", "ms", "lower", 0.25, "", "client-observed latency of a read request, 99th percentile (nearest rank)"},
	{"cpu_ms_per_op", "ms", "lower", 0.25, "", "utime+stime of all server processes over the measured phase ÷ requests, from /proc/<pid>/stat"},
	{"rss_mb", "MiB", "lower", 0.10, "", "sum of VmHWM of the server processes when the measured phase has completed a fixed op count (twice the traced pass's)"},
}

// endToEndPartial are end-to-end metrics that exist on some workloads
// only. The BENCHMARK.json contract wants every end_to_end metric from
// every workload, so there they are listed under per_layer (0 where
// undefined); -compare applies their bounds all the same.
var endToEndPartial = []metricDef{
	{"write_p50_ms", "ms", "lower", 0.25, "durable-mixed, cluster-3x2", "/add-matrix acknowledgement latency, median"},
	{"write_p99_ms", "ms", "lower", 0.25, "durable-mixed, cluster-3x2", "/add-matrix acknowledgement latency, 99th percentile"},
	{"recover_s", "s", "lower", 0.25, "durable-mixed", "kill -9 → healthy again with 400 WAL records replayed"},
	{"space_amp", "ratio", "lower", 0.02, "durable-mixed", "bytes in the data directory after a clean shutdown ÷ gene.WriteDatabase bytes of the live database"},
}

// perLayer are the metrics of single layers, named <package>.<metric>.
var perLayer = []metricDef{
	// Stage time per read, from imgrn_stage_seconds deltas over the traced pass.
	{"plan.ms_per_op", "ms", "lower", 0, "p50_ms (none at default flags: the planner is off)", "plan stage time per read"},
	{"grn.infer_ms_per_op", "ms", "lower", 0, "p50_ms on mc-cold", "query-GRN inference time per read"},
	{"grn.infer_kernel_ms_per_op", "ms", "lower", 0, "p50_ms on mc-cold", "part of inference inside the batched Monte Carlo kernel"},
	{"core.traverse_ms_per_op", "ms", "lower", 0, "qps, p50_ms on traverse-largeN, cluster-3x2", "pairwise R*-tree descent time per read, summed over shards"},
	{"core.filter_ms_per_op", "ms", "lower", 0, "qps, p50_ms on traverse-largeN, cluster-3x2", "candidate-pair → candidate-matrix reduction time per read"},
	{"core.markov_ms_per_op", "ms", "lower", 0, "p50_ms, p99_ms on mc-cold", "Lemma-5 pruning time per read (aggregate over candidates)"},
	{"core.monte_carlo_ms_per_op", "ms", "lower", 0, "p50_ms, p99_ms on mc-cold", "exact verification time per read (aggregate CPU over candidates and workers)"},
	{"core.batch_ms_per_op", "ms", "lower", 0, "qps on batch-explore", "wall time of one engine batch"},
	{"shard.scatter_ms_per_op", "ms", "lower", 0, "p50_ms on traverse-largeN", "wall time of the scatter wave, children included"},
	{"shard.merge_ms_per_op", "ms", "lower", 0, "p50_ms on traverse-largeN", "cross-shard answer merge time per read"},
	{"core.topk_ms_per_op", "ms", "lower", 0, "p50_ms (none: no workload asks for top-k)", "ranking and truncation time per read"},
	// Work counts and waste ratios from the stats blocks; exact under one client.
	{"core.node_pairs_per_op", "count", "lower", 0, "core.traverse_ms_per_op", "R*-tree node pairs visited per read"},
	{"core.node_pairs_pruned_ratio", "ratio", "higher", 0, "core.traverse_ms_per_op", "node pairs pruned before being queued ÷ (pruned + visited)"},
	{"core.point_pairs_per_op", "count", "lower", 0, "core.traverse_ms_per_op", "leaf point pairs checked per read"},
	{"core.point_pairs_pruned_ratio", "ratio", "higher", 0, "core.traverse_ms_per_op", "point pairs pruned ÷ checked"},
	{"core.candidates_per_op", "count", "lower", 0, "core.monte_carlo_ms_per_op", "candidate matrices reaching refinement per read"},
	{"core.answers_per_candidate", "ratio", "higher", 0, "core.monte_carlo_ms_per_op", "answers ÷ candidates that reached exact verification (useful ÷ attempted)"},
	{"core.cache_hit_ratio", "ratio", "higher", 0, "core.monte_carlo_ms_per_op on batch-explore; 0 on mc-cold by design", "edge-probability cache hits ÷ lookups"},
	{"pagestore.pages_per_op", "count", "lower", 0, "none: simulated pages, the paper's I/O metric", "simulated page accesses per read"},
	{"pagestore.buffer_hit_ratio", "ratio", "higher", 0, "none: simulated pages", "page touches absorbed by the per-query buffer pool"},
	{"core.batch_groups_per_request", "count", "lower", 0, "core.traverse_ms_per_op on batch-explore", "shared traversals per /query-batch request"},
	// Serve path.
	{"server.overhead_ms", "ms", "lower", 0, "p50_ms on batch-explore", "median client latency − median server totalSeconds: decode, encode, mux, loopback"},
	{"server.resp_kb_per_op", "KiB", "lower", 0, "server.overhead_ms", "response bytes per request"},
	{"server.residual_ms_per_op", "ms", "lower", 0, "p50_ms", "last row of the layer table: median latency − every stage's exclusive time"},
	// Durability.
	{"wal.appends", "count", "lower", 0, "write_p50_ms", "WAL records appended during the traced pass, all processes"},
	{"wal.fsyncs_per_write", "ratio", "lower", 0, "write_p50_ms, write_p99_ms", "WAL fsyncs ÷ acknowledged writes of the traced pass"},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0, "write_p50_ms, space_amp", "WAL payload bytes ÷ binary bytes of the matrices added in the traced pass"},
	{"shard.checkpoints", "count", "higher", 0, "write_p99_ms on durable-mixed", "checkpoints completed by the traced deployment since boot (size-triggered under one client, so exact), all processes"},
	{"shard.checkpoint_ms_last", "ms", "lower", 0, "write_p99_ms", "duration of the most recent checkpoint (mean over durable processes)"},
	{"shard.snapshot_bytes_per_user_byte", "ratio", "lower", 0, "space_amp", "bytes of the most recent checkpoint ÷ gene.WriteDatabase bytes of the generated database"},
	{"shard.warm_boot_ms", "ms", "lower", 0, "recover_s", "OpenDurable time of the clean restart (snapshot load, replay 0)"},
	{"shard.replay_ms_per_record", "ms", "lower", 0, "recover_s", "(recovering boot − clean boot) ÷ replayed records"},
	// Cluster tier.
	{"cluster.legs_per_op", "count", "lower", 0, "p50_ms on cluster-3x2", "coordinator RPCs (exec and mutate legs) per request"},
	{"cluster.rpc_ms_per_leg", "ms", "lower", 0, "p50_ms, write_p50_ms on cluster-3x2", "coordinator-observed wall time per RPC (imgrn_rpc_seconds)"},
	{"cluster.hop_ms_per_leg", "ms", "lower", 0, "p50_ms, write_p50_ms on cluster-3x2", "RPC time − the shard servers' own imgrn_query_seconds, per leg; mutate legs have no shard-side timer and count in full"},
	{"cluster.hedges", "count", "lower", 0, "p99_ms on cluster-3x2", "hedged attempts launched from the end of set-up to the end of the measured phase, plus the traced pass's; must be 0 on a healthy loopback cluster"},
	{"cluster.retries", "count", "lower", 0, "p99_ms on cluster-3x2", "RPC retries over the same span; must be 0"},
	{"cluster.coordinator_cpu_ms_per_op", "ms", "lower", 0, "cpu_ms_per_op on cluster-3x2", "coordinator process CPU per request of the measured phase"},
	{"cluster.shard_cpu_ms_per_op", "ms", "lower", 0, "cpu_ms_per_op on cluster-3x2", "shard-server CPU per request of the measured phase"},
	// In-process probes: median of ≥200 timed calls, the layers HTTP cannot see.
	{"server.decode_us", "us", "lower", 0, "server.overhead_ms", "json → server.QueryRequest of a traverse-largeN request"},
	{"server.encode_us", "us", "lower", 0, "server.overhead_ms", "server.QueryResponse → json of a traverse-largeN reply"},
	{"plan.resolve_us", "us", "lower", 0, "p50_ms", "plan.Resolve of a fixed plan request"},
	{"plan.wire_us", "us", "lower", 0, "cluster.hop_ms_per_leg", "Plan.EncodeWire + plan.DecodeWire"},
	{"cluster.envelope_us", "us", "lower", 0, "cluster.hop_ms_per_leg", "ParamsToWire/AnswersToWire, JSON round trip of one leg's answers"},
	{"vecmath.matmul_ns_per_mac", "ns", "lower", 0, "grn.infer_kernel_ms_per_op", "MatMulRowsInto, per multiply-accumulate (1024×16 by 8 columns)"},
	{"stats.edgeprob_us", "us", "lower", 0, "core.monte_carlo_ms_per_op", "Estimator.EdgeProbability, 1024 samples"},
	{"stats.permbatch_fill_us", "us", "lower", 0, "grn.infer_kernel_ms_per_op", "PermBatch.Fill, 1024 permutations"},
	{"grn.infer_pruned_ms", "ms", "lower", 0, "grn.infer_ms_per_op", "grn.InferPruned of an 8-gene query, 1024 samples"},
	{"core.merge_us", "us", "lower", 0, "shard.merge_ms_per_op", "core.MergeAnswerRuns over 3 runs"},
	{"exec.foreach_ns_per_item", "ns", "lower", 0, "core.monte_carlo_ms_per_op on mc-cold", "exec.Context.ForEach with an empty body, 2 workers, per item"},
	{"index.add_matrix_ms", "ms", "lower", 0, "write_p50_ms", "Index.AddMatrix of one generated matrix"},
	{"index.build_ms", "ms", "lower", 0, "setup_s", "index.Build over the first 16 sources of the traverse-largeN database"},
	{"gene.codec_us", "us", "lower", 0, "wal.bytes_per_user_byte", "gene.WriteMatrix + gene.ReadMatrix of one generated matrix"},
	{"wal.append_fsync_us", "us", "lower", 0, "write_p50_ms", "wal.Writer.Append of one add record, fsync on"},
	{"wal.append_nosync_us", "us", "lower", 0, "write_p50_ms", "wal.Writer.Append of one add record, fsync off"},
	{"shard.query_inproc_ms", "ms", "lower", 0, "p50_ms on traverse-largeN", "the traverse-largeN requests through shard.Coordinator.QueryContext, no HTTP"},
	// Generator honesty and tracing cost.
	{"loadgen.cpu_share", "ratio", "lower", 0, "none: above 0.15 the generator competes with the servers", "client CPU ÷ client+server CPU of the measured phase"},
	{"trace.overhead_ratio", "ratio", "lower", 0, "none", "cpu_ms_per_op of the traced pass ÷ the untraced measured phase"},
}

var metricIndex = func() map[string]metricDef {
	idx := make(map[string]metricDef)
	for _, list := range [][]metricDef{endToEnd, endToEndPartial, perLayer} {
		for _, d := range list {
			idx[d.name] = d
		}
	}
	return idx
}()

func unitOf(name string) string { return metricIndex[name].unit }

// manifestRunSeconds is the phase length BENCHMARK.json asks its caller to
// pass as --seconds: with 114 runs and about 6 s of set-up, warm-up and
// checks around each, 15 s phases fit the contract's 3420 s.
const manifestRunSeconds = 15

// manifest renders BENCHMARK.json from the catalog and the workload list;
// the file in the repository root must equal it byte for byte.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: manifestRunSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, bounded{d.name, d.unit, d.better, d.bound})
	}
	for _, list := range [][]metricDef{endToEndPartial, perLayer} {
		for _, d := range list {
			m.PerLayer = append(m.PerLayer, unbounded{d.name, d.unit, d.better})
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	err := enc.Encode(m)
	return buf.Bytes(), err
}
