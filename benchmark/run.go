package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/imgrn/imgrn/internal/gene"
)

type runConfig struct {
	seed  uint64
	phase time.Duration // length of the measured phase
	quick bool          // op counts ÷ 20
}

// scale applies -quick to a fixed op count.
func (c runConfig) scale(ops int) int {
	if c.quick {
		return max(ops/20, 8)
	}
	return ops
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one run of one workload reports.
type workloadResult struct {
	Workload  string `json:"workload"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// EndToEnd comes from the untraced measured phase (and, for
	// durable-mixed, its restart legs); PerLayer from the traced pass.
	EndToEnd map[string]metricValue `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	// LayerTable splits the traced pass's median latency into exclusive
	// rows, the unexplained remainder last.
	LayerTable []tableRow `json:"layer_table,omitempty"`
	// Counts are sample sizes and op counts behind the metrics.
	Counts       map[string]int `json:"counts"`
	PhaseSeconds float64        `json:"phase_seconds"`
	StreamSHA256 string         `json:"loadgen.stream_sha256"`
	Errors       []string       `json:"errors,omitempty"`
}

func (r *workloadResult) setE2E(name string, v float64) {
	r.EndToEnd[name] = metricValue{v, unitOf(name)}
}

func (r *workloadResult) setLayer(name string, v float64) {
	r.PerLayer[name] = metricValue{v, unitOf(name)}
}

func (r *workloadResult) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// setupBoots is how many boots setup_s is the median of. The small
// databases boot in 0.15 s, where one slow process start moves a median of
// three by a third.
const setupBoots = 5

// runWorkload runs one workload: set-up (boots), warm-up, the untraced
// measured phase and, for durable-mixed, its restart legs; then — when
// traced is set — the single-client traced pass on a deployment of its own;
// then the answer check and, when traced, the in-process probes.
func runWorkload(ctx context.Context, env *environment, w *workload, cfg runConfig, traced bool) (*workloadResult, error) {
	res := &workloadResult{
		Workload: w.name, Correct: true,
		EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}, Counts: map[string]int{},
	}
	in, err := generate(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	res.StreamSHA256 = streamSHA256(in)
	dir, err := os.MkdirTemp(env.runDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dbPath := filepath.Join(dir, "db.imgrn")
	if err := gene.SaveDatabase(dbPath, in.ds.DB); err != nil {
		return nil, err
	}

	// Set-up: boot the deployment setupBoots times and keep the last. Each
	// boot starts from the database file alone (fresh data directories).
	var setups []float64
	for i := 0; i < setupBoots-1; i++ {
		d, took, err := boot(ctx, env.serverBin, filepath.Join(dir, fmt.Sprintf("boot%d", i)), dbPath, w)
		if err != nil {
			return nil, err
		}
		d.stop()
		setups = append(setups, took.Seconds())
	}
	live := map[int]bool{} // acknowledged writes: source → still there
	d, took, booted, err := ready(ctx, env, filepath.Join(dir, "measured"), dbPath, in, phaseMeasured, w.clients, live)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	res.setE2E("setup_s", median(append(setups, took.Seconds())))

	// The measured phase: no trace flag, no scrapes, bodies only read.
	m, err := runPhase(ctx, phaseSpec{
		in: in, url: d.front.url, phase: phaseMeasured, clients: w.clients,
		duration: cfg.phase, budget: cfg.phase, pids: d.pids(), rssAtOps: 2 * w.tracedOps,
	})
	if err != nil {
		return nil, err
	}
	recordPhase(res, m, live)
	if m.attempted == 0 {
		return nil, fmt.Errorf("%s: the measured phase sent nothing", w.name)
	}
	ops := float64(m.attempted)
	res.PhaseSeconds = m.wall.Seconds()
	res.Counts["ops"] = m.attempted
	res.Counts["read_samples"] = len(m.readMS)
	res.Counts["p99_samples_beyond"] = samplesBeyond(len(m.readMS), 99)
	res.setE2E("qps", float64(m.items)/m.wall.Seconds())
	res.setE2E("p50_ms", percentile(m.readMS, 50))
	res.setE2E("p99_ms", percentile(m.readMS, 99))
	res.setE2E("cpu_ms_per_op", 1000*m.serverCPU/ops)
	// Peak RSS is read at a fixed op count (twice the traced pass's), not
	// at the end: mc-cold leaves a cache family behind per request, and a
	// faster server must not look bigger for having served more of them. A
	// phase too short to get there reports its end.
	rss := m.rssMB
	if rss == 0 {
		if rss, err = peakRSSMB(d.pids()); err != nil {
			return nil, err
		}
	}
	res.setE2E("rss_mb", rss)
	if len(m.addMS) > 0 {
		res.Counts["write_samples"] = len(m.addMS)
		res.setE2E("write_p50_ms", percentile(m.addMS, 50))
		res.setE2E("write_p99_ms", percentile(m.addMS, 99))
	}
	if traced {
		res.setLayer("loadgen.cpu_share", ratio(m.clientCPU, m.clientCPU+m.serverCPU))
		if w.deploy == deployCluster {
			clusterCPU(res, d, m)
			// Hedges and retries since the end of set-up (the coordinator
			// retries its first health probes while the shard servers still
			// boot), over warm-up and the measured phase.
			now, err := scrapeMetrics(ctx, d.front)
			if err != nil {
				return nil, err
			}
			since := now.sub(booted)
			res.setLayer("cluster.hedges", since["imgrn_rpc_hedges_total"])
			res.setLayer("cluster.retries", since["imgrn_rpc_retries_total"])
		}
	}
	if w.deploy == deployDurable {
		if err := durableLegs(ctx, d, in, cfg, res, live); err != nil {
			return nil, err
		}
	}
	if !res.Correct {
		res.Errors = append(res.Errors, d.logs())
	}
	d.stop()

	// The traced pass gets a deployment of its own, booted and warmed up
	// the same way: the measured phase runs for a time, so what it leaves
	// behind (which sources are live, the shape of the trees) differs from
	// run to run, and the traced pass's work counts must not.
	checked := m.kept
	if traced {
		scratch := map[int]bool{} // its writes are never checked against a restart
		td, _, _, err := ready(ctx, env, filepath.Join(dir, "traced"), dbPath, in, phaseTraced, 1, scratch)
		if err != nil {
			return nil, err
		}
		defer td.stop()
		t, err := tracedPass(ctx, env, td, in, cfg, res)
		if err != nil {
			return nil, err
		}
		recordPhase(res, t, scratch)
		for i, k := range t.kept {
			if i%sampleEvery == 0 {
				checked = append(checked, k)
			}
		}
		res.setLayer("trace.overhead_ratio", ratio(1000*t.serverCPU/float64(t.attempted), 1000*m.serverCPU/ops))
		if !res.Correct {
			res.Errors = append(res.Errors, td.logs())
		}
		td.stop()
	}

	// Every server is stopped by now: the reference runs in this process
	// and must not compete with a measured phase.
	if err := ctx.Err(); err != nil {
		return nil, err // interrupted: skip the CPU-bound tail
	}
	compared, err := checkAnswers(in, checked, res)
	if err != nil {
		return nil, err
	}
	res.Counts["replies_checked"] = len(checked)
	res.Counts["answers_compared"] = compared
	if traced {
		if err := runProbes(ctx, env, cfg, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ready boots one deployment, waits until it can serve, warms it up and
// preloads the streams of the phase that follows, recording the preloaded
// sources in live. It returns the boot time and, for a cluster, the
// coordinator's metrics at the end of set-up.
func ready(ctx context.Context, env *environment, root, dbPath string, in *inputs, phase, clients int, live map[int]bool) (*deployment, time.Duration, promSample, error) {
	w := in.w
	d, took, err := boot(ctx, env.serverBin, root, dbPath, w)
	if err != nil {
		return nil, 0, nil, err
	}
	fail := func(err error) (*deployment, time.Duration, promSample, error) {
		err = fmt.Errorf("%s: %w\n%s", w.name, err, d.logs())
		d.stop()
		return nil, 0, nil, err
	}
	booted, err := waitClusterReady(ctx, d, w)
	if err != nil {
		return fail(err)
	}
	// Warm-up, unrecorded: one pass over the request pool from a single
	// client in pool order, so the cache state it leaves is the same on
	// every run.
	warm, err := runPhase(ctx, phaseSpec{
		in: in, url: d.front.url, phase: phaseWarm, clients: 1, pattern: "Q",
		ops: len(in.reads), budget: 60 * time.Second, pids: d.pids(),
	})
	if err != nil {
		return fail(err)
	}
	if warm.failed > 0 {
		return fail(fmt.Errorf("warm-up failed: %s", strings.Join(warm.errors, "; ")))
	}
	for c := 0; c < clients; c++ {
		s := newStream(in, phase, c, clients, false)
		ops := s.preload()
		if err := sendAll(ctx, d.front.url, s, ops); err != nil {
			return fail(fmt.Errorf("preload: %w", err))
		}
		for _, o := range ops {
			live[o.source] = true
		}
	}
	return d, took, booted, nil
}

// recordPhase folds a phase's op accounting and acknowledged writes into
// the result.
func recordPhase(res *workloadResult, p *phaseResult, live map[int]bool) {
	res.Attempted += p.attempted
	res.Failed += p.failed
	for _, e := range p.errors {
		res.fail("%s", e)
	}
	for src, alive := range p.live {
		live[src] = alive
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// waitClusterReady waits until the coordinator's health probe has seen
// every shard server and returns the coordinator's metrics at that moment;
// a standalone deployment is ready once healthy.
func waitClusterReady(ctx context.Context, d *deployment, w *workload) (promSample, error) {
	if w.deploy != deployCluster {
		return nil, nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		// A /metrics scrape makes the coordinator probe its members.
		s, err := scrapeMetrics(ctx, d.front)
		if err == nil && int(s["imgrn_cluster_members_healthy"]) == w.shards {
			return s, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("coordinator does not see %d healthy shard servers (last scrape error: %v)\n%s", w.shards, err, d.logs())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// clusterCPU splits the measured phase's server CPU per request between
// the coordinator (the front process) and the shard servers.
func clusterCPU(res *workloadResult, d *deployment, m *phaseResult) {
	coord := 0.0
	for i, pid := range d.pids() {
		if pid == d.front.pid() {
			coord = m.cpuByPID[i]
		}
	}
	ops := float64(m.attempted)
	res.setLayer("cluster.coordinator_cpu_ms_per_op", 1000*coord/ops)
	res.setLayer("cluster.shard_cpu_ms_per_op", 1000*(m.serverCPU-coord)/ops)
}
