// Command imgrn-server serves IM-GRN queries over HTTP: it loads a gene
// feature database, builds (or loads) the index, and exposes the JSON API
// of internal/server — the prototype-system interface described in the
// paper's conclusion.
//
// Usage:
//
//	imgrn-server -db db.imgrn -addr :8080
//	imgrn-server -db db.imgrn -index idx.imgrn   # reuse a saved index
//	imgrn-server -db db.imgrn -data-dir ./data   # durable: WAL + snapshots
//	imgrn-server -db db.imgrn -shards 4          # four index shards
//
// Every server that holds data — standalone at any -shards, durable or
// not, and the cluster shard role (cluster.go) — opens one
// shard.Coordinator in one step: shard.OpenDurable with -data-dir,
// otherwise shard.Build over the -db database, or shard.FromIndex with
// -index. The server and the shutdown path hold only that coordinator.
//
// With -data-dir the server is durable (DESIGN.md §12): every mutation is
// fsynced to a per-shard write-ahead log before its HTTP response, the
// log is folded into crash-safe snapshots on the -checkpoint-bytes /
// -checkpoint-every thresholds and on clean shutdown, and a restart
// warm-boots from the snapshots — skipping the Monte Carlo embedding —
// replaying only the mutations logged since the last checkpoint. On a
// warm boot -db is optional and ignored; kill -9 loses nothing that was
// acknowledged.
//
// Queries are served concurrently; -max-concurrent sheds excess load with
// 503, -query-timeout bounds each query, and -workers sets the default
// intra-query parallelism. SIGINT/SIGTERM drain in-flight requests before
// exit (bounded by -shutdown-timeout).
//
// Observability: /metrics serves the Prometheus metric catalog and
// /healthz the liveness probe; -pprof exposes net/http/pprof under
// /debug/pprof/, and -slow-query logs any query slower than the given
// threshold with its per-stage trace breakdown. See the README
// "Observability quick-start" and the DESIGN.md metric catalog.
//
// Example query:
//
//	curl -s localhost:8080/query-graph -d '{
//	  "genes": ["12", "47"],
//	  "edges": [{"s": 0, "t": 1, "prob": 0.9}],
//	  "params": {"gamma": 0.5, "alpha": 0.5}
//	}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/plan"
	"github.com/imgrn/imgrn/internal/server"
	"github.com/imgrn/imgrn/internal/shard"
)

func main() {
	var (
		dbPath        = flag.String("db", "", "database file (required)")
		idxPath       = flag.String("index", "", "saved index file (optional; built fresh when absent, and written here afterwards when set)")
		addr          = flag.String("addr", ":8080", "listen address")
		d             = flag.Int("d", 2, "pivots per matrix when building")
		seed          = flag.Uint64("seed", 42, "random seed when building")
		queryTimeout  = flag.Duration("query-timeout", 30*time.Second, "per-query wall-clock bound (0 disables)")
		maxConcurrent = flag.Int("max-concurrent", 0, "max in-flight query requests before shedding with 503 (0 = unbounded)")
		workers       = flag.Int("workers", 0, "default intra-query parallelism (0 = sequential)")
		drainTimeout  = flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
		pprofOn       = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		slowQuery     = flag.Duration("slow-query", 0, "log queries slower than this with their stage breakdown (0 disables)")
		shards        = flag.Int("shards", 1, "partition the database across this many index shards and query them scatter-gather (1 = one shard; incompatible with -index)")
		dataDir       = flag.String("data-dir", "", "durable data directory: WAL every mutation and checkpoint into snapshots; restarts warm-boot from it (incompatible with -index)")
		ckptBytes     = flag.Int64("checkpoint-bytes", 64<<20, "checkpoint when live WAL segments exceed this many bytes (durable mode; <0 disables the size trigger)")
		ckptEvery     = flag.Duration("checkpoint-every", 0, "background checkpoint interval while mutations are outstanding (durable mode; 0 = size-triggered and shutdown only)")
		planAdaptive  = flag.Bool("plan-adaptive", false, "plan queries adaptively with the cost-model planner (per-query plans appear in the stats \"plan\" block and the imgrn_plan_* metrics; off = the fixed default pipeline)")

		// Cluster roles (DESIGN.md §15; see cluster.go).
		role        = flag.String("role", "", `cluster role: "" standalone, "shard" (host a slice of the global partition), "coordinator" (scatter-gather front over -shards-at)`)
		shardsAt    = flag.String("shards-at", "", "comma-separated shard-server base URLs, roster order (cluster roles)")
		serverIndex = flag.Int("server-index", -1, "this server's index in the -shards-at roster (shard role)")
		replication = flag.Int("replication", 2, "replicas per global shard (clamped to the roster size)")
		hedgeAfter  = flag.Duration("hedge-after", 250*time.Millisecond, "hedge a read to the next replica after this much silence (coordinator; negative disables)")
		floorEvery  = flag.Duration("floor-every", 25*time.Millisecond, "top-k floor push cadence (coordinator; negative disables)")
		rpcTimeout  = flag.Duration("rpc-timeout", 60*time.Second, "per-hop RPC budget (coordinator)")
		rpcRetries  = flag.Int("rpc-retries", 2, "idempotent-read retries after transient RPC failures (coordinator)")
	)
	flag.Parse()

	cf := clusterFlags{
		role: *role, shardsAt: *shardsAt, serverIndex: *serverIndex,
		replication: *replication, hedgeAfter: *hedgeAfter, floorEvery: *floorEvery,
		rpcTimeout: *rpcTimeout, rpcRetries: *rpcRetries,
	}
	if *role == "coordinator" {
		serveCoordinator(cf, *addr, *queryTimeout, *maxConcurrent, *workers,
			*pprofOn, *slowQuery, *drainTimeout, *planAdaptive)
		return
	}
	if *role != "" && *role != "shard" {
		fatal(fmt.Errorf("unknown -role %q (want shard or coordinator)", *role))
	}

	// Standalone and shard servers share one in-process open step; a
	// shard server hosts len(owned) local shards placed through the
	// cluster ring, a standalone one -shards round-robin shards.
	opts := shard.Options{
		NumShards: *shards,
		Index:     index.Options{D: *d, Seed: *seed, BufferPages: 1024},
	}
	var sr *shardSlice
	if *role == "shard" {
		if *idxPath != "" {
			fatal(fmt.Errorf("-index is not supported with -role shard; shard indexes rebuild at startup or warm-boot from -data-dir"))
		}
		sr = cf.shardSlice()
		opts.NumShards = len(sr.role.Shards)
		opts.PlaceFunc = sr.role.PlaceLocal
	}
	coord := openCoordinator(*dbPath, *idxPath, opts, shard.DurableOptions{
		Dir:             *dataDir,
		CheckpointBytes: *ckptBytes,
		CheckpointEvery: *ckptEvery,
	}, sr)

	var h *server.Server
	if sr == nil {
		h = server.New(coord, nil)
	} else {
		ds := coord.DurableStats()
		fmt.Printf("cluster: shard server %d/%d serving global shards %v (R=%d, warm=%v gen=%d): %d sources\n",
			cf.serverIndex, sr.topo.NumShards, sr.role.Shards, sr.topo.Replication, ds.WarmBoot, ds.Gen,
			coord.Database().Len())
		h = server.NewShardServer(coord, nil, sr.role)
	}
	serve(h, coord, *addr, *queryTimeout, *maxConcurrent,
		*workers, *pprofOn, *slowQuery, *drainTimeout, *planAdaptive)
}

// openCoordinator is the one in-process open step. With dopts.Dir set it
// opens the durable coordinator there: a directory holding committed
// state warm-boots without re-embedding and ignores -db, a fresh one
// cold-boots from the -db database and checkpoints it before serving.
// Otherwise it builds the coordinator from -db (shard.Build), or wraps
// the -index file (shard.FromIndex; built and saved there when it cannot
// be loaded). A shard server's database keeps only the sources the ring
// places on its hosted shards.
func openCoordinator(dbPath, idxPath string, opts shard.Options, dopts shard.DurableOptions, sr *shardSlice) *shard.Coordinator {
	loadDB := func(what string) *gene.Database {
		if dbPath == "" {
			fatal(fmt.Errorf("-db is required%s", what))
		}
		db, err := gene.LoadDatabase(dbPath)
		if err != nil {
			fatal(err)
		}
		if sr != nil {
			db = sr.filter(db)
		}
		sum := db.Summary()
		fmt.Printf("database: %d matrices, %d vectors, %d distinct genes\n",
			sum.Matrices, sum.TotalVectors, sum.DistinctGenes)
		return db
	}

	if dopts.Dir != "" {
		if idxPath != "" {
			fatal(fmt.Errorf("-data-dir and -index are mutually exclusive; the data directory holds its own snapshots"))
		}
		var db *gene.Database
		if _, err := os.Stat(filepath.Join(dopts.Dir, "MANIFEST")); err != nil {
			db = loadDB(" to initialize a fresh -data-dir")
		}
		embedBefore := index.EmbedCalls()
		coord, err := shard.OpenDurable(db, opts, dopts)
		if err != nil {
			fatal(err)
		}
		embedded := index.EmbedCalls() - embedBefore
		ds := coord.DurableStats()
		n := coord.Database().Len()
		if ds.WarmBoot {
			// The embedded/n ratio is the warm-boot witness: only mutations
			// replayed from the WAL re-embed; everything else loads its
			// vectors from the snapshots.
			fmt.Printf("store: warm boot gen=%d replayed=%d torn=%dB embedded=%d/%d sources in %v\n",
				ds.Gen, ds.ReplayedRecords, ds.TornBytes, embedded, n, ds.BootDuration)
		} else {
			fmt.Printf("store: cold boot gen=%d embedded=%d/%d sources in %v (checkpointed to %s)\n",
				ds.Gen, embedded, n, ds.BootDuration, dopts.Dir)
		}
		bs := coord.IndexStats()
		fmt.Printf("index: %d shards, %d vectors, %d nodes\n",
			coord.NumShards(), bs.Vectors, bs.TreeNodes)
		return coord
	}

	db := loadDB("")
	if idxPath == "" {
		coord, err := shard.Build(db, opts)
		if err != nil {
			fatal(err)
		}
		bs := coord.IndexStats()
		fmt.Printf("index: built %d shards, %d vectors, %d nodes in %v\n",
			coord.NumShards(), bs.Vectors, bs.TreeNodes, bs.Elapsed)
		return coord
	}
	// Saved indexes are single-shard only.
	if opts.NumShards > 1 {
		fatal(fmt.Errorf("-shards and -index are mutually exclusive; sharded indexes rebuild at startup"))
	}
	idx, err := index.LoadFile(idxPath, db)
	if err == nil {
		fmt.Printf("index: loaded from %s (%d vectors) in %v\n",
			idxPath, idx.Stats().Vectors, idx.Stats().Elapsed)
		return shard.FromIndex(idx)
	}
	fmt.Printf("index: cannot load %s (%v); building fresh\n", idxPath, err)
	if idx, err = index.Build(db, opts.Index); err != nil {
		fatal(err)
	}
	fmt.Printf("index: built %d vectors, %d nodes in %v\n",
		idx.Stats().Vectors, idx.Stats().TreeNodes, idx.Stats().Elapsed)
	if err := idx.SaveFile(idxPath); err != nil {
		fatal(err)
	}
	fmt.Printf("index: saved to %s\n", idxPath)
	return shard.FromIndex(idx)
}

// serve configures the HTTP server and runs it until SIGINT/SIGTERM,
// then drains in-flight requests. A non-nil coordinator is closed after
// the drain — for a durable one, the clean-shutdown checkpoint, so the
// next boot replays nothing.
func serve(h *server.Server, coord *shard.Coordinator, addr string, queryTimeout time.Duration, maxConcurrent,
	workers int, pprofOn bool, slowQuery, drainTimeout time.Duration, planAdaptive bool) {
	h.QueryTimeout = queryTimeout
	h.MaxConcurrent = maxConcurrent
	h.Workers = workers
	h.EnablePprof = pprofOn
	h.SlowQueryThreshold = slowQuery
	if planAdaptive {
		h.Planner = plan.NewPlanner(plan.Options{})
		fmt.Println("planner: adaptive query planning enabled")
	}
	if pprofOn {
		fmt.Println("pprof: enabled at /debug/pprof/")
	}

	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("listening on %s\n", addr)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		stop() // restore default signal behavior: a second signal kills immediately
		fmt.Println("shutting down: draining in-flight requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "imgrn-server: forced shutdown:", err)
			_ = srv.Close()
			closeCoordinator(coord)
			os.Exit(1)
		}
		closeCoordinator(coord)
		fmt.Println("shutdown complete")
	}
}

// closeCoordinator closes the in-process coordinator (nil-safe); a
// durable one checkpoints first.
func closeCoordinator(coord *shard.Coordinator) {
	if coord == nil {
		return
	}
	if err := coord.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "imgrn-server: closing store:", err)
		return
	}
	if coord.Durable() {
		fmt.Printf("store: clean shutdown at gen %d\n", coord.Gen())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "imgrn-server:", err)
	os.Exit(1)
}
