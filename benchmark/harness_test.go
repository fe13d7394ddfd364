package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestStreamHashFollowsSeed(t *testing.T) {
	// The two small workloads cover both kinds of per-op splice: source
	// IDs of writes (durable-mixed) and fresh seeds of reads (mc-cold).
	for _, name := range []string{"durable-mixed", "mc-cold"} {
		w := workloadByName(name)
		hash := func(seed uint64) string {
			in, err := generate(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			return streamSHA256(in)
		}
		a, again, other := hash(7), hash(7), hash(8)
		if a != again {
			t.Errorf("%s: seed 7 hashed to %s and then %s", name, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 hash alike (%s)", name, a)
		}
	}
}

func TestStreamWritesFindTheirTargets(t *testing.T) {
	in, err := generate(workloadByName("durable-mixed"), 3)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		s := newStream(in, phaseMeasured, c, 2, false)
		live := map[int]bool{}
		for _, o := range s.preload() {
			live[o.source] = true
		}
		if len(live) != removeLag {
			t.Fatalf("client %d preloads %d sources, want %d", c, len(live), removeLag)
		}
		reads, writes := 0, 0
		for i := 0; i < 8*40; i++ {
			switch o := s.next(); o.kind {
			case opAdd:
				if live[o.source] {
					t.Fatalf("client %d op %d adds source %d twice", c, i, o.source)
				}
				live[o.source] = true
				writes++
			case opRemove:
				if !live[o.source] {
					t.Fatalf("client %d op %d removes source %d, which is not live", c, i, o.source)
				}
				delete(live, o.source)
				writes++
			default:
				reads++
			}
		}
		if reads != 3*writes {
			t.Errorf("client %d: %d reads beside %d writes, want 75%% reads", c, reads, writes)
		}
		if len(live) != removeLag {
			t.Errorf("client %d: %d sources live after whole cycles, want a steady %d", c, len(live), removeLag)
		}
	}
	// Clients and phases never share a source.
	a := newStream(in, phaseMeasured, 0, 2, false).source(0)
	b := newStream(in, phaseMeasured, 1, 2, false).source(0)
	c := newStream(in, phaseTraced, 0, 1, true).source(0)
	if a == b || a == c || b == c {
		t.Errorf("source ranges overlap: %d %d %d", a, b, c)
	}
}

func TestFreshSeedsNeverRepeat(t *testing.T) {
	in, err := generate(workloadByName("mc-cold"), 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, phase := range []int{phaseWarm, phaseMeasured, phaseTraced} {
		s := newStream(in, phase, 0, 1, false)
		for i := 0; i < 500; i++ {
			o := s.next()
			if o.seed == 0 || seen[o.seed] {
				t.Fatalf("phase %d op %d: seed %d is zero or repeats", phase, i, o.seed)
			}
			seen[o.seed] = true
			var body queryBody
			if err := json.Unmarshal(s.render(nil, o), &body); err != nil {
				t.Fatalf("rendered body is not JSON: %v", err)
			}
			if body.Params.Seed != o.seed || body.Params.Samples != 1024 || body.Params.Workers != 2 {
				t.Fatalf("rendered params %+v do not carry seed %d", body.Params, o.seed)
			}
		}
	}
}

func TestPercentileArithmetic(t *testing.T) {
	v := make([]float64, 0, 1000)
	for i := 1000; i >= 1; i-- { // descending: percentile must not depend on order
		v = append(v, float64(i))
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 500}, {99, 990}, {100, 1000}, {0.01, 1}, {25, 250}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%v of 1..1000 = %v, want %v", c.p, got, c.want)
		}
	}
	if v[0] != 1000 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("median of 3 samples = %v, want 2", got)
	}
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2 {
		t.Errorf("nearest-rank median of 4 samples = %v, want 2", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// p99 is trusted from 1000 samples on: ten lie beyond it.
	for _, c := range []struct{ n, want int }{{1000, 10}, {999, 9}, {100, 1}, {1588, 15}, {0, 0}} {
		if got := samplesBeyond(c.n, 99); got != c.want {
			t.Errorf("samples beyond p99 of %d = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestParsePrometheusFixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "metrics_durable.txt"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := parseProm(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		`imgrn_requests_total{endpoint="query"}`:            6,
		`imgrn_requests_total{endpoint="add-matrix"}`:       3,
		`imgrn_stage_seconds_count{stage="traverse"}`:       12,
		`imgrn_query_seconds_bucket{le="+Inf"}`:             6,
		`imgrn_query_seconds_count`:                         6,
		`imgrn_wal_appends_total`:                           4,
		`imgrn_wal_fsyncs_total`:                            4,
		`imgrn_snapshot_warm_boot`:                          0,
		`imgrn_mutations_total{op="remove"}`:                1,
		`imgrn_request_errors_total{code="409"}`:            1,
		`imgrn_shard_sources{shard="1"}`:                    102,
		`imgrn_plan_stage_cost_nanos{stage="markov_prune"}`: 0,
	} {
		got, ok := s[series]
		if !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if sum := s[stageSum("traverse")]; sum <= 0 || sum > 1 {
		t.Errorf("traverse stage sum = %v, want a small positive duration", sum)
	}
	if _, ok := s["# HELP imgrn_requests_total Requests served, by endpoint."]; ok {
		t.Error("a comment line was parsed as a series")
	}

	// Deltas and sums over processes.
	before := promSample{"a": 1, "b": 5}
	after := promSample{"a": 4, "b": 5, "c": 2}
	d := after.sub(before)
	if d["a"] != 3 || d["b"] != 0 || d["c"] != 2 {
		t.Errorf("delta = %v", d)
	}
	d.add(promSample{"a": 1, "z": 9})
	if d["a"] != 4 || d["z"] != 9 {
		t.Errorf("sum = %v", d)
	}
	if _, err := parseProm(strings.NewReader("imgrn_x notanumber\n")); err == nil {
		t.Error("a non-numeric value parsed")
	}
}

func TestParseProcFixtures(t *testing.T) {
	stat, err := os.ReadFile(filepath.Join("testdata", "proc_stat.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// The fixture's command name is "imgrn) server (x", so a parser that
	// splits on the first ')' or on spaces reads the wrong fields.
	got, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(1234+56) / clockTick; got != want {
		t.Errorf("utime+stime = %v s, want %v s", got, want)
	}
	if _, err := parseProcStat([]byte("1 (x) S 1 2")); err == nil {
		t.Error("a truncated stat line parsed")
	}

	status, err := os.ReadFile(filepath.Join("testdata", "proc_status.txt"))
	if err != nil {
		t.Fatal(err)
	}
	hwm, err := parseProcStatusKB(status, "VmHWM")
	if err != nil || hwm != 65432 {
		t.Errorf("VmHWM = %d kB (%v), want 65432", hwm, err)
	}
	rss, err := parseProcStatusKB(status, "VmRSS")
	if err != nil || rss != 60000 {
		t.Errorf("VmRSS = %d kB (%v), want 60000", rss, err)
	}
	if _, err := parseProcStatusKB(status, "VmNope"); err == nil {
		t.Error("a missing key parsed")
	}
}

func result(e2e map[string]float64, attempted, failed int) *workloadResult {
	r := &workloadResult{Workload: "w", Correct: true, Attempted: attempted, Failed: failed, EndToEnd: map[string]metricValue{}}
	for k, v := range e2e {
		r.setE2E(k, v)
	}
	return r
}

func TestCompare(t *testing.T) {
	lower := metricDef{name: "lat_ms", better: "lower", bound: 0.08}
	higher := metricDef{name: "rate", better: "higher", bound: 0.08}
	for _, c := range []struct {
		d          metricDef
		base, next float64
		want       verdict
	}{
		{lower, 10, 10.7, within},
		{lower, 10, 10.9, worse},
		{lower, 10, 9.1, better},
		{higher, 100, 93, within},
		{higher, 100, 91, worse},
		{higher, 100, 110, better},
		{lower, 0, 0, within},
		{lower, 0, 1, worse},
	} {
		if got, _ := judge(c.d, c.base, c.next); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.d.name, c.base, c.next, got, c.want)
		}
	}

	// Whole files, against the catalog's own bounds: half a bound is
	// inside, a bound and a half is worse.
	shifted := func(f float64, attempted, failed int) *resultFile {
		e2e := map[string]float64{}
		for _, name := range []string{"qps", "p50_ms", "recover_s"} {
			d := metricIndex[name]
			move := 1 + f*d.bound
			if d.better == "higher" {
				move = 1 - f*d.bound
			}
			e2e[name] = 100 * move
		}
		return &resultFile{Workloads: []*workloadResult{result(e2e, attempted, failed)}}
	}
	base := shifted(0, 1000, 0)
	var out bytes.Buffer
	if bad := compareResults(&out, base, shifted(0.5, 1000, 0)); bad != 0 {
		t.Errorf("runs inside every bound: %d rows worse\n%s", bad, out.String())
	}
	for _, want := range []string{"qps", "p50_ms", "recover_s", "fail_ratio", "within bound"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison output lacks %q:\n%s", want, out.String())
		}
	}
	slow := shifted(1.5, 1000, 0)
	if bad := compareResults(&out, base, slow); bad != 3 {
		t.Errorf("three metrics a bound and a half off: %d rows worse, want 3", bad)
	}
	if bad := compareResults(&out, base, shifted(-1.5, 1000, 0)); bad != 0 {
		t.Errorf("three metrics better: %d rows worse, want 0", bad)
	}
	if bad := compareResults(&out, base, shifted(0, 1000, 1)); bad != 1 {
		t.Errorf("fail_ratio rose: %d rows worse, want 1", bad)
	}
	if bad := compareResults(&out, base, &resultFile{}); bad != 1 {
		t.Errorf("missing workload: %d rows worse, want 1", bad)
	}

	// Through files, as the command runs it.
	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeResult(pa, base); err != nil {
		t.Fatal(err)
	}
	if err := writeResult(pb, slow); err != nil {
		t.Fatal(err)
	}
	if code := compareFiles(&out, pa, pa); code != 0 {
		t.Errorf("a file against itself exits %d", code)
	}
	if code := compareFiles(&out, pa, pb); code != 1 {
		t.Errorf("a regression exits %d, want 1", code)
	}
}

func TestLayerTableSumsToLatency(t *testing.T) {
	// One sharded op: two shards traverse in parallel inside scatter, each
	// followed by its aggregate refinement spans.
	op := tracedOp{ordinal: 4, latMS: 10, totalMS: 9, stats: []queryStats{{}}, spans: []spanJSON{
		{Stage: "infer", BeginSeconds: 0, DurSeconds: 0.001},
		{Stage: "traverse", BeginSeconds: 0.001, DurSeconds: 0.004},
		{Stage: "traverse", BeginSeconds: 0.001, DurSeconds: 0.003},
		{Stage: "markov_prune", BeginSeconds: 0.005, DurSeconds: 0.001},
		{Stage: "monte_carlo", BeginSeconds: 0.005, DurSeconds: 0.001},
		{Stage: "scatter", BeginSeconds: 0.001, DurSeconds: 0.007},
		{Stage: "merge", BeginSeconds: 0.008, DurSeconds: 0.0005},
	}}
	tree := spanTree(op)
	if tree[0].Name != "client.request" || tree[0].Parent != -1 || tree[0].DurMS != 10 {
		t.Fatalf("root span %+v", tree[0])
	}
	byName := map[string][]span{}
	for _, s := range tree {
		if s.Op != 4 {
			t.Errorf("span %+v does not carry the op ordinal", s)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	scatter := byName["scatter"][0]
	for _, name := range []string{"traverse", "markov_prune", "monte_carlo"} {
		for _, s := range byName[name] {
			if s.Parent != scatter.ID {
				t.Errorf("%s span hangs under %d, want scatter (%d)", name, s.Parent, scatter.ID)
			}
		}
	}
	if mc := byName["monte_carlo"][0]; math.Abs(mc.BeginMS-6) > 1e-9 {
		t.Errorf("monte_carlo begins at %v ms, want 6 (behind markov_prune)", mc.BeginMS)
	}
	rows := map[string]float64{}
	allocate(tree, 0, op.latMS, rows)
	sum := 0.0
	for _, v := range rows {
		sum += v
	}
	if math.Abs(sum-10) > 1e-9 {
		t.Errorf("rows sum to %v ms, want the latency 10: %v", sum, rows)
	}
	// Children cover [1,7] of scatter's [1,8]: 1 ms is scatter's own. The
	// top level covers 1 + 7 + 0.5 of the 10 ms: 1.5 ms is the remainder.
	for layer, want := range map[string]float64{"shard.scatter": 1, "server.residual": 1.5, "grn.infer": 1, "shard.merge": 0.5} {
		if math.Abs(rows[layer]-want) > 1e-9 {
			t.Errorf("%s = %v ms, want %v", layer, rows[layer], want)
		}
	}
	// 6 ms of cover over traverse 4+3, markov 1, monte_carlo 1.
	if want := 6 * 7.0 / 9; math.Abs(rows["core.traverse"]-want) > 1e-9 {
		t.Errorf("core.traverse = %v ms, want %v", rows["core.traverse"], want)
	}

	// The table of several ops closes on their median latency.
	lat := []float64{8, 9, 10, 11, 30}
	var opRows []map[string]float64
	for _, l := range lat {
		o := op
		o.latMS = l
		r := map[string]float64{}
		allocate(spanTree(o), 0, l, r)
		opRows = append(opRows, r)
	}
	table := layerTable(opRows, lat, 10)
	total := 0.0
	for _, row := range table {
		total += row.MS
	}
	if math.Abs(total-10) > 1e-9 {
		t.Errorf("table sums to %v ms, want the median 10", total)
	}
	if last := table[len(table)-1]; last.Layer != "server.residual" {
		t.Errorf("last row is %s, want server.residual", last.Layer)
	}
}

func TestBatchSpanOwnsWhatItemsLeave(t *testing.T) {
	// Two items share one 4 ms traversal; the batch span is 6 ms long.
	op := tracedOp{latMS: 7, totalMS: 6, batch: true, stats: []queryStats{{RefinementSeconds: 1}, {RefinementSeconds: 1}}, spans: []spanJSON{
		{Stage: "traverse", BeginSeconds: 0.0002, DurSeconds: 0.004},
		{Stage: "traverse", BeginSeconds: 0.0001, DurSeconds: 0.004},
	}}
	rows := map[string]float64{}
	allocate(spanTree(op), 0, op.latMS, rows)
	for layer, want := range map[string]float64{"server.residual": 1, "core.batch": 1.9, "core.traverse": 4.1} {
		if math.Abs(rows[layer]-want) > 1e-9 {
			t.Errorf("%s = %v ms, want %v (rows %v)", layer, rows[layer], want, rows)
		}
	}
}

// TestManifestMatchesCatalog pins BENCHMARK.json to the metric catalog and
// the workload list (regenerate it with -manifest), and the catalog to the
// limits of the BENCHMARK.json contract.
func TestManifestMatchesCatalog(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from what -manifest prints:\n%s", want)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, the contract allows 2 to 8", n)
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	largest := 0.0
	for _, d := range endToEnd {
		largest = max(largest, d.bound)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if metricIndex["setup_s"].bound != largest {
		t.Errorf("setup_s must carry the largest bound (%v)", largest)
	}
	if n := len(endToEndPartial) + len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", n)
	}
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, endToEndPartial, perLayer} {
		for _, d := range list {
			if seen[d.name] || len(d.name) > 64 || len(d.unit) > 16 || (d.better != "lower" && d.better != "higher") {
				t.Errorf("metric %+v: duplicate name, or name, unit or direction outside the contract", d)
			}
			seen[d.name] = true
		}
	}
}

// TestReadmeNamesEveryMetric keeps the README glossary complete.
func TestReadmeNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for name := range metricIndex {
		if !bytes.Contains(data, []byte("`"+name+"`")) {
			t.Errorf("README.md does not describe %s", name)
		}
	}
	for _, w := range workloads {
		if !bytes.Contains(data, []byte("**`"+w.name+"`**")) {
			t.Errorf("README.md has no paragraph on %s", w.name)
		}
	}
}

// TestQuickEndToEnd runs the whole benchmark, every workload and pass, in
// its -quick size against the real binary. It spawns servers and takes
// about a minute, so it only runs on request.
func TestQuickEndToEnd(t *testing.T) {
	if os.Getenv("BENCH_E2E") != "1" {
		t.Skip("set BENCH_E2E=1 to run the harness end to end against the real imgrn-server")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	defer killAll()
	env, err := prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(env.runDir)
	out := filepath.Join(t.TempDir(), "quick.json")
	if code := runAll(ctx, env, runConfig{seed: 5, phase: time.Second, quick: true}, out); code != 0 {
		t.Fatalf("quick run exited %d", code)
	}
	file, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the result, want %d", len(file.Workloads), len(workloads))
	}
	for _, r := range file.Workloads {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed: %v", r.Workload, r.Correct, r.Failed, r.Attempted, r.Errors)
		}
		for _, d := range endToEnd {
			if v := r.EndToEnd[d.name].Value; v <= 0 {
				t.Errorf("%s: %s = %v", r.Workload, d.name, v)
			}
		}
		for _, d := range perLayer {
			if _, ok := r.PerLayer[d.name]; !ok && !strings.HasPrefix(d.name, "cluster.") && !strings.HasPrefix(d.name, "shard.warm") && !strings.HasPrefix(d.name, "shard.replay") {
				t.Errorf("%s: per-layer metric %s missing", r.Workload, d.name)
			}
		}
	}
	if code := compareFiles(os.Stdout, out, out); code != 0 {
		t.Errorf("the result does not compare clean against itself: exit %d", code)
	}
}
