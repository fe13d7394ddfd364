package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// resultFile is what a full run writes and what -compare reads.
type resultFile struct {
	Meta      meta              `json:"meta"`
	Workloads []*workloadResult `json:"workloads"`
}

type meta struct {
	Commit       string `json:"commit"`
	GoVersion    string `json:"go_version"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Kernel       string `json:"kernel"`
	Seed         uint64 `json:"seed"`
	PhaseSeconds int    `json:"phase_seconds_requested"`
	Quick        bool   `json:"quick"`
	Started      string `json:"started"`
	// Per workload, the measured op counts and phase lengths are in each
	// result's counts and phase_seconds.
}

func newMeta(env *environment, cfg runConfig) meta {
	m := meta{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: "unknown", Seed: cfg.seed,
		PhaseSeconds: int(cfg.phase / time.Second), Quick: cfg.quick,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = env.root
	if out, err := cmd.Output(); err == nil { // not a git checkout: stays "unknown"
		m.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(data))
	}
	return m
}

func failRatio(r *workloadResult) float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

// printResult prints every metric of a workload by name, with its unit.
func printResult(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "== %s  (%.1f s measured, %d ops, %d read samples, %d beyond p99; stream %s)\n",
		r.Workload, r.PhaseSeconds, r.Counts["ops"], r.Counts["read_samples"], r.Counts["p99_samples_beyond"], r.StreamSHA256[:12])
	for _, list := range [][]metricDef{endToEnd, endToEndPartial} {
		for _, d := range list {
			if v, ok := r.EndToEnd[d.name]; ok {
				fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, v.Value, v.Unit)
			}
		}
	}
	fmt.Fprintf(w, "  %-34s %14.6f ratio  (%d of %d)\n", "fail_ratio", failRatio(r), r.Failed, r.Attempted)
	for _, d := range perLayer {
		if v, ok := r.PerLayer[d.name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, v.Value, v.Unit)
		}
	}
	if len(r.LayerTable) > 0 {
		fmt.Fprintf(w, "  layer table (traced pass, exclusive ms per read; sums to its median latency):\n")
		sum := 0.0
		for _, row := range r.LayerTable {
			fmt.Fprintf(w, "    %-22s %9.4f ms %6.1f %%\n", row.Layer, row.MS, 100*row.Share)
			sum += row.MS
		}
		fmt.Fprintf(w, "    %-22s %9.4f ms\n", "= median latency", sum)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  ERROR %s\n", e)
	}
	if share := r.PerLayer["loadgen.cpu_share"].Value; share > 0.15 {
		fmt.Fprintf(w, "  WARNING loadgen.cpu_share %.2f is above 0.15: the generator competes with the servers\n", share)
	}
}

// runContract runs one workload the way BENCHMARK.json's command is
// called: human-readable metrics first, then one JSON object as the last
// line of standard output. With trace off the metrics are the end_to_end
// list, with trace on the per_layer list (0 where a metric does not exist
// on the workload).
func runContract(ctx context.Context, env *environment, w *workload, cfg runConfig, traced bool) int {
	res, err := runWorkload(ctx, env, w, cfg, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResult(os.Stdout, res)
	metrics := map[string]metricValue{}
	if traced {
		for _, d := range endToEndPartial {
			metrics[d.name] = metricValue{res.EndToEnd[d.name].Value, d.unit}
		}
		for _, d := range perLayer {
			metrics[d.name] = metricValue{res.PerLayer[d.name].Value, d.unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.name] = res.EndToEnd[d.name]
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct && res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// runAll is the full run: every workload, untraced phase and traced pass,
// printed and written to one result file.
func runAll(ctx context.Context, env *environment, cfg runConfig, outPath string) int {
	file := resultFile{Meta: newMeta(env, cfg)}
	code := 0
	for _, w := range workloads {
		res, err := runWorkload(ctx, env, w, cfg, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		printResult(os.Stdout, res)
		file.Workloads = append(file.Workloads, res)
		if !res.Correct || res.Failed > 0 {
			code = 1
		}
	}
	if outPath == "" {
		outPath = filepath.Join(env.benchDir, "out", fmt.Sprintf("result-seed%d.json", cfg.seed))
	}
	if err := writeResult(outPath, &file); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("result written to %s\n", outPath)
	return code
}

func writeResult(path string, file *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(file); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &file, nil
}
