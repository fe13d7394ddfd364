// Command benchmark is the closed-loop load test of the real imgrn-server
// binary: five workloads over three deployment shapes, end-to-end metrics
// from an untraced run and a per-layer budget from a second, traced pass.
// See README.md in this directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName  = flag.String("workload", "", "run one workload and print one result line (the BENCHMARK.json contract); empty runs all five and writes a result file")
		seed          = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds       = flag.Int("seconds", 20, "length of each measured phase")
		trace         = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced pass")
		quick         = flag.Bool("quick", false, "smoke run: 1-second phases and op counts ÷ 20")
		out           = flag.String("out", "", "result file of a full run (default benchmark/out/result-seed<seed>.json)")
		compare       = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		printManifest = flag.Bool("manifest", false, "print BENCHMARK.json as the metric catalog and workload list define it")
	)
	flag.Parse()

	if *printManifest {
		data, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if _, err := os.Stdout.Write(data); err != nil {
			return 1
		}
		return 0
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	var only *workload
	if *workloadName != "" {
		if only = workloadByName(*workloadName); only == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: needs at least 2 CPUs (2 clients beside the server); refusing to run")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer killAll()

	env, err := prepare(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(env.runDir)
	cfg := runConfig{seed: *seed, phase: time.Duration(*seconds) * time.Second, quick: *quick}
	if *quick {
		cfg.phase = time.Second
	}

	if only != nil {
		return runContract(ctx, env, only, cfg, *trace == 1)
	}
	return runAll(ctx, env, cfg, *out)
}

// environment is where a run builds and keeps its files: everything lives
// under .bench_build/ in the repository root, nothing outside the checkout.
type environment struct {
	root      string // repository root
	benchDir  string // this directory
	serverBin string
	runDir    string // private to this invocation, removed at exit
}

// findRoot locates the repository root from the working directory, which
// is either the root (run.sh) or this directory (go run -C benchmark .).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "imgrn-server", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cmd/imgrn-server not found from %s: run from the repository root", wd)
}

// prepare builds ./cmd/imgrn-server once and creates the run directory.
func prepare(ctx context.Context) (*environment, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	env := &environment{
		root:      root,
		benchDir:  filepath.Join(root, "benchmark"),
		serverBin: filepath.Join(build, "bin", "imgrn-server"),
	}
	if err := os.MkdirAll(filepath.Dir(env.serverBin), 0o755); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", env.serverBin, "./cmd/imgrn-server")
	cmd.Dir = root
	if outp, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building imgrn-server: %w\n%s", err, outp)
	}
	if env.runDir, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, err
	}
	return env, nil
}
