package shard_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/shard"
	"github.com/imgrn/imgrn/internal/synth"
)

// goldenOpts is the shared fixed-seed fixture of the core golden tests:
// the same database, index options and query workload, so a P=1
// coordinator can be pinned byte-identical to the raw processor.
var goldenOpts = index.Options{D: 2, Samples: 24, Seed: 7, Bits: 512, BufferPages: 256}

func goldenDB(t *testing.T) *synth.Dataset {
	t.Helper()
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: 120, NMin: 20, NMax: 40, LMin: 20, LMax: 30, Seed: 7, Dist: synth.Gaussian,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// fingerprint renders one query result — answers with full-precision
// probabilities plus every schedule-independent Stats counter — for exact
// comparison across engine configurations.
func fingerprint(answers []core.Answer, st core.Stats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "answers=%d io=%d hits=%d cand=%d genes=%d l5=%d npv=%d npp=%d ppc=%d ppp=%d qv=%d qe=%d ch=%d cm=%d\n",
		len(answers), st.IOCost, st.IOHits, st.CandidateMatrices, st.CandidateGenes,
		st.MatricesPrunedL5, st.NodePairsVisited, st.NodePairsPruned,
		st.PointPairsChecked, st.PointPairsPruned, st.QueryVertices, st.QueryEdges,
		st.CacheHits, st.CacheMisses)
	for _, a := range answers {
		fmt.Fprintf(&sb, "  src=%d prob=%.17g edges=%d\n", a.Source, a.Prob, len(a.Edges))
	}
	return sb.String()
}

// TestP1ByteIdentical pins the one-shard scatter to the raw processor: a
// 1-shard coordinator answers byte-identically to one processor over the
// whole index — same answers, same probabilities to the last bit, same
// pruning/I/O/cache counters — across the golden Monte Carlo workload,
// although it infers the query graph apart from the shard's run.
func TestP1ByteIdentical(t *testing.T) {
	ds := goldenDB(t)
	idx, err := index.Build(ds.DB, goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	ds2 := goldenDB(t)
	coord, err := shard.Build(ds2.DB, shard.Options{NumShards: 1, Index: goldenOpts})
	if err != nil {
		t.Fatal(err)
	}

	// The unsharded engine builds a fresh processor per query over a shared
	// cache; mirror that exactly.
	params := core.Params{Gamma: 0.5, Alpha: 0.4, Samples: 48, Seed: 9,
		Cache: core.NewEdgeProbCache(0)}

	rng := randgen.New(99)
	rng2 := randgen.New(99)
	for i := 0; i < 6; i++ {
		mq, _, err := ds.ExtractQuery(rng, 5)
		if err != nil {
			t.Fatal(err)
		}
		mq2, _, err := ds2.ExtractQuery(rng2, 5)
		if err != nil {
			t.Fatal(err)
		}
		proc, err := core.NewProcessor(idx, params)
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt, err := proc.Query(mq)
		if err != nil {
			t.Fatal(err)
		}
		got, gotSt, err := coord.QueryContext(context.Background(), mq2, params)
		if err != nil {
			t.Fatal(err)
		}
		if w, g := fingerprint(want, wantSt), fingerprint(got, gotSt); g != w {
			t.Errorf("query %d: P=1 coordinator diverged from unsharded processor:\n got:\n%s\nwant:\n%s", i, g, w)
		}
	}
}

// buildBoth builds the golden database twice: once unsharded, once
// partitioned across p shards.
func buildBoth(t *testing.T, p int) (*synth.Dataset, *index.Index, *synth.Dataset, *shard.Coordinator, core.Params) {
	t.Helper()
	ds := goldenDB(t)
	idx, err := index.Build(ds.DB, goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{Gamma: 0.5, Alpha: 0.4, Seed: 9, Analytic: true}
	ds2 := goldenDB(t)
	coord, err := shard.Build(ds2.DB, shard.Options{NumShards: p, Index: goldenOpts})
	if err != nil {
		t.Fatal(err)
	}
	return ds, idx, ds2, coord, params
}

// TestScatterSetEquality: under the deterministic analytic estimator a
// P>1 scatter must return exactly the unsharded answer set — same
// sources, bit-equal probabilities, sorted by source — because placement
// partitions the sources and all pruning is lossless per shard.
func TestScatterSetEquality(t *testing.T) {
	for _, p := range []int{2, 4} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			ds, idx, ds2, coord, params := buildBoth(t, p)
			rng := randgen.New(99)
			rng2 := randgen.New(99)
			for i := 0; i < 6; i++ {
				mq, _, err := ds.ExtractQuery(rng, 5)
				if err != nil {
					t.Fatal(err)
				}
				mq2, _, err := ds2.ExtractQuery(rng2, 5)
				if err != nil {
					t.Fatal(err)
				}
				proc, err := core.NewProcessor(idx, params)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := proc.Query(mq)
				if err != nil {
					t.Fatal(err)
				}
				got, st, err := coord.QueryContext(context.Background(), mq2, params)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("query %d: %d answers sharded, %d unsharded", i, len(got), len(want))
				}
				for k := range got {
					if got[k].Source != want[k].Source || got[k].Prob != want[k].Prob {
						t.Errorf("query %d answer %d: sharded (src=%d p=%v) != unsharded (src=%d p=%v)",
							i, k, got[k].Source, got[k].Prob, want[k].Source, want[k].Prob)
					}
				}
				if st.QueryVertices == 0 || st.IOCost == 0 {
					t.Errorf("query %d: aggregate stats not merged: %+v", i, st)
				}
			}
		})
	}
}

// TestScatterDeterministicMC: under Monte Carlo estimation a P>1 scatter
// is a pure function of (database, Params) — identical across repeated
// runs and across identically-built coordinators, never dependent on
// goroutine schedule (the root TestAnswersIndependentOfShardCount holds it
// equal to one shard).
func TestScatterDeterministicMC(t *testing.T) {
	params := core.Params{Gamma: 0.5, Alpha: 0.4, Samples: 48, Seed: 9}
	run := func() string {
		ds2 := goldenDB(t)
		mq2, _, err := ds2.ExtractQuery(randgen.New(99), 5)
		if err != nil {
			t.Fatal(err)
		}
		coord, err := shard.Build(ds2.DB, shard.Options{NumShards: 3, Index: goldenOpts})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for rep := 0; rep < 2; rep++ {
			answers, _, err := coord.QueryContext(context.Background(), mq2, params)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range answers {
				fmt.Fprintf(&sb, "src=%d prob=%.17g\n", a.Source, a.Prob)
			}
			sb.WriteString("--\n")
		}
		return sb.String()
	}
	first := run()
	if second := run(); second != first {
		t.Errorf("MC scatter not deterministic across identical coordinators:\n%s\nvs\n%s", first, second)
	}
}

// TestTopKMatchesFullRanking: the streamed bounded merge with cross-shard
// early termination must return exactly the k best answers of the full
// query — the prefix of the probability ranking (ties toward smaller
// source IDs) — even though it prunes shard work the full query performs.
func TestTopKMatchesFullRanking(t *testing.T) {
	_, _, ds2, coord, params := buildBoth(t, 3)
	rng := randgen.New(99)
	for i := 0; i < 4; i++ {
		mq, _, err := ds2.ExtractQuery(rng, 5)
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := coord.QueryContext(context.Background(), mq, params)
		if err != nil {
			t.Fatal(err)
		}
		// Rank the full answer set the way top-k defines it.
		ranked := append([]core.Answer(nil), full...)
		for a := 1; a < len(ranked); a++ {
			for b := a; b > 0; b-- {
				if ranked[b].Prob > ranked[b-1].Prob ||
					(ranked[b].Prob == ranked[b-1].Prob && ranked[b].Source < ranked[b-1].Source) {
					ranked[b], ranked[b-1] = ranked[b-1], ranked[b]
				} else {
					break
				}
			}
		}
		for _, k := range []int{1, 3, 10} {
			got, st, err := coord.QueryTopKContext(context.Background(), mq, params, k)
			if err != nil {
				t.Fatal(err)
			}
			wantN := k
			if wantN > len(ranked) {
				wantN = len(ranked)
			}
			if len(got) != wantN {
				t.Fatalf("query %d k=%d: %d answers, want %d", i, k, len(got), wantN)
			}
			for j := 0; j < wantN; j++ {
				if got[j].Source != ranked[j].Source || got[j].Prob != ranked[j].Prob {
					t.Errorf("query %d k=%d rank %d: (src=%d p=%v), want (src=%d p=%v)",
						i, k, j, got[j].Source, got[j].Prob, ranked[j].Source, ranked[j].Prob)
				}
			}
			if st.QueryEdges == 0 {
				t.Errorf("query %d k=%d: stats not populated", i, k)
			}
		}
	}
}

// TestTopKAnswersStatOneMeaning: Stats.Answers under top-k is the number
// of answers returned, and the solo entry point and a batch item are the
// same query — equal answers, equal Answers — at P=1 and P=3 alike.
func TestTopKAnswersStatOneMeaning(t *testing.T) {
	const k = 2
	ctx := context.Background()
	for _, p := range []int{1, 3} {
		_, _, ds, coord, params := buildBoth(t, p)
		rng := randgen.New(99)
		trimmed := false
		for i := 0; i < 4; i++ {
			mq, _, err := ds.ExtractQuery(rng, 2) // two genes: a dozen matches each
			if err != nil {
				t.Fatal(err)
			}
			full, _, err := coord.QueryContext(ctx, mq, params)
			if err != nil {
				t.Fatal(err)
			}
			trimmed = trimmed || len(full) > k
			solo, sst, err := coord.QueryTopKContext(ctx, mq, params, k)
			if err != nil {
				t.Fatal(err)
			}
			res, _ := coord.QueryBatch(ctx, []core.BatchItem{{Matrix: mq, Params: params, K: k}}, core.BatchOptions{})
			if res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
			if !reflect.DeepEqual(solo, res[0].Answers) {
				t.Errorf("P=%d query %d: solo top-k %+v, batch item %+v", p, i, solo, res[0].Answers)
			}
			if sst.Answers != len(solo) || res[0].Stats.Answers != len(solo) {
				t.Errorf("P=%d query %d: Stats.Answers solo %d, batch %d, want %d (answers returned)",
					p, i, sst.Answers, res[0].Stats.Answers, len(solo))
			}
		}
		if !trimmed {
			t.Fatalf("P=%d: no query had more than %d matches; the test cannot tell the two meanings apart", p, k)
		}
	}
}

// TestBatchItemIsolation: a nil item and a K-trimmed item behave per item
// without affecting their siblings, and the K item returns the full
// query's best answer, at P=1 and P=3 alike.
func TestBatchItemIsolation(t *testing.T) {
	ctx := context.Background()
	for _, p := range []int{1, 3} {
		_, _, ds, coord, params := buildBoth(t, p)
		mq, _, err := ds.ExtractQuery(randgen.New(101), 2)
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := coord.QueryTopKContext(ctx, mq, params, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(full) < 2 {
			t.Fatalf("P=%d: %d answers; the K=1 item trims nothing", p, len(full))
		}
		items := []core.BatchItem{
			{Matrix: mq, Params: params},
			{Params: params}, // no matrix, no graph
			{Matrix: mq, Params: params, K: 1},
		}
		results, bst := coord.QueryBatch(ctx, items, core.BatchOptions{})
		if results[0].Err != nil || results[2].Err != nil {
			t.Fatalf("P=%d: sibling errors: %v / %v", p, results[0].Err, results[2].Err)
		}
		if !errors.Is(results[1].Err, core.ErrNoBatchQuery) {
			t.Fatalf("P=%d: empty item error = %v, want ErrNoBatchQuery", p, results[1].Err)
		}
		if bst.Errors != 1 {
			t.Fatalf("P=%d: batch errors = %d, want 1", p, bst.Errors)
		}
		if len(results[0].Answers) != len(full) {
			t.Errorf("P=%d: untrimmed item returned %d answers, want %d", p, len(results[0].Answers), len(full))
		}
		if !reflect.DeepEqual(results[2].Answers, full[:1]) {
			t.Errorf("P=%d: K=1 item returned %+v, want %+v", p, results[2].Answers, full[:1])
		}
	}
}

// mkMatrix builds a small matrix over genes disjoint from the synth pool.
func mkMatrix(t testing.TB, src int) *gene.Matrix {
	t.Helper()
	rng := randgen.New(uint64(src)*0x9e37 + 1)
	genes := []gene.ID{gene.ID(100000 + 2*src), gene.ID(100001 + 2*src)}
	cols := make([][]float64, len(genes))
	for j := range cols {
		col := make([]float64, 16)
		for k := range col {
			col[k] = rng.Gaussian(0, 1)
		}
		cols[j] = col
	}
	m, err := gene.NewMatrix(src, genes, cols)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMutationRouting covers placement: round-robin assignment of new
// sources, the sentinel errors, load reporting, and the global database
// view staying in sync with the shards.
func TestMutationRouting(t *testing.T) {
	ds := goldenDB(t)
	n := ds.DB.Len()
	coord, err := shard.Build(ds.DB, shard.Options{NumShards: 4, Index: goldenOpts})
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin continues from the build cursor.
	for i := 0; i < 8; i++ {
		src := 5000 + i
		if err := coord.AddMatrix(mkMatrix(t, src)); err != nil {
			t.Fatal(err)
		}
		sh, ok := coord.Placement(src)
		if !ok {
			t.Fatalf("source %d unplaced after AddMatrix", src)
		}
		if want := (n + i) % 4; sh != want {
			t.Errorf("source %d placed on shard %d, want %d", src, sh, want)
		}
	}
	if got := coord.Database().Len(); got != n+8 {
		t.Errorf("global database = %d sources, want %d", got, n+8)
	}
	loads := coord.Loads()
	total := 0
	for _, l := range loads {
		total += l
	}
	if total != n+8 {
		t.Errorf("loads %v sum to %d, want %d", loads, total, n+8)
	}
	// Duplicate source: ErrSourceExists, placement unchanged.
	if err := coord.AddMatrix(mkMatrix(t, 5000)); !errors.Is(err, shard.ErrSourceExists) {
		t.Errorf("duplicate AddMatrix err = %v, want ErrSourceExists", err)
	}
	// Remove, then the source is gone everywhere.
	if err := coord.RemoveMatrix(5000); err != nil {
		t.Fatal(err)
	}
	if _, ok := coord.Placement(5000); ok {
		t.Error("removed source still placed")
	}
	if coord.Database().BySource(5000) != nil {
		t.Error("removed source still in global database")
	}
	if err := coord.RemoveMatrix(5000); !errors.Is(err, shard.ErrSourceNotFound) {
		t.Errorf("double RemoveMatrix err = %v, want ErrSourceNotFound", err)
	}
}

// TestSnapshotCounters: Snapshot partitions the sources, counts served
// queries per shard, and surfaces per-shard I/O and cache counters after
// queries ran.
func TestSnapshotCounters(t *testing.T) {
	ds := goldenDB(t)
	coord, err := shard.Build(ds.DB, shard.Options{NumShards: 3, Index: goldenOpts})
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{Gamma: 0.5, Alpha: 0.4, Seed: 9, Analytic: true}
	mq, _, err := ds.ExtractQuery(randgen.New(99), 5)
	if err != nil {
		t.Fatal(err)
	}
	const reps = 2
	for i := 0; i < reps; i++ {
		if _, _, err := coord.QueryContext(context.Background(), mq, params); err != nil {
			t.Fatal(err)
		}
	}
	infos := coord.Snapshot()
	if len(infos) != 3 {
		t.Fatalf("snapshot has %d shards", len(infos))
	}
	sources, queries, io := 0, uint64(0), uint64(0)
	for i, info := range infos {
		if info.Shard != i {
			t.Errorf("snapshot[%d].Shard = %d", i, info.Shard)
		}
		sources += info.Sources
		queries += info.Queries
		io += info.IOCost
	}
	if sources != ds.DB.Len() {
		t.Errorf("snapshot sources sum to %d, want %d", sources, ds.DB.Len())
	}
	if queries != reps*3 {
		t.Errorf("snapshot queries sum to %d, want %d (each scatter touches every shard)", queries, reps*3)
	}
	if io == 0 {
		t.Error("no shard accumulated I/O cost")
	}
	bs := coord.IndexStats()
	vectors := 0
	for _, info := range infos {
		vectors += info.Vectors
	}
	if bs.Vectors != vectors {
		t.Errorf("IndexStats.Vectors = %d, snapshot sums to %d", bs.Vectors, vectors)
	}
}

// TestScatterCancellation: a cancelled context aborts the scatter with
// context.Canceled, both when cancelled before the call and while shards
// are mid-flight.
func TestScatterCancellation(t *testing.T) {
	ds := goldenDB(t)
	coord, err := shard.Build(ds.DB, shard.Options{NumShards: 3, Index: goldenOpts})
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{Gamma: 0.5, Alpha: 0.4, Samples: 48, Seed: 9}
	mq, _, err := ds.ExtractQuery(randgen.New(99), 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := coord.QueryContext(ctx, mq, params); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled QueryContext err = %v, want context.Canceled", err)
	}
	if _, _, err := coord.QueryTopKContext(ctx, mq, params, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled QueryTopKContext err = %v, want context.Canceled", err)
	}
	// Mid-scatter: race a cancel against the running query; the call must
	// return promptly with either a complete answer or context.Canceled,
	// never a partial set or a deadlock (exercised under -race in CI).
	for rep := 0; rep < 8; rep++ {
		qctx, qcancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		var answers []core.Answer
		var qerr error
		go func() {
			answers, _, qerr = coord.QueryContext(qctx, mq, params)
			close(done)
		}()
		qcancel()
		<-done
		if qerr != nil && !errors.Is(qerr, context.Canceled) {
			t.Fatalf("rep %d: err = %v, want nil or context.Canceled", rep, qerr)
		}
		if qerr != nil && answers != nil {
			t.Fatalf("rep %d: cancelled query returned partial answers", rep)
		}
	}
	// The coordinator still answers after cancellations.
	if _, _, err := coord.QueryContext(context.Background(), mq, params); err != nil {
		t.Fatalf("post-cancel query: %v", err)
	}
}

// TestConcurrentMutationsAndQueries races scatter-gather queries against
// mutations routed to every shard (run with -race in CI). The mutated
// sources carry genes disjoint from the query, so the fixed query's
// answer set must equal the quiescent run no matter the interleaving.
func TestConcurrentMutationsAndQueries(t *testing.T) {
	ds := goldenDB(t)
	coord, err := shard.Build(ds.DB, shard.Options{NumShards: 3, Index: goldenOpts})
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{Gamma: 0.5, Alpha: 0.4, Seed: 9, Analytic: true}
	mq, _, err := ds.ExtractQuery(randgen.New(99), 5)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := coord.QueryContext(context.Background(), mq, params)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				src := 7000 + w*100 + rep
				if err := coord.AddMatrix(mkMatrix(t, src)); err != nil {
					errCh <- err
					return
				}
				if err := coord.RemoveMatrix(src); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got, _, err := coord.QueryContext(context.Background(), mq, params)
				if err != nil {
					errCh <- err
					return
				}
				if len(got) != len(want) {
					errCh <- fmt.Errorf("concurrent query: %d answers, want %d", len(got), len(want))
					return
				}
				for k := range got {
					if got[k].Source != want[k].Source || got[k].Prob != want[k].Prob {
						errCh <- fmt.Errorf("concurrent query: answer %d differs", k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestFromIndexSharedDatabase: wrapping a built index must not
// double-register mutations in the shared database, and queries must work
// unchanged.
func TestFromIndexSharedDatabase(t *testing.T) {
	ds := goldenDB(t)
	idx, err := index.Build(ds.DB, goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	coord := shard.FromIndex(idx)
	if coord.NumShards() != 1 {
		t.Fatalf("FromIndex shards = %d", coord.NumShards())
	}
	n := coord.Database().Len()
	if err := coord.AddMatrix(mkMatrix(t, 9000)); err != nil {
		t.Fatal(err)
	}
	if got := coord.Database().Len(); got != n+1 {
		t.Fatalf("database after add = %d sources, want %d (double registration?)", got, n+1)
	}
	if err := coord.RemoveMatrix(9000); err != nil {
		t.Fatal(err)
	}
	if got := coord.Database().Len(); got != n {
		t.Fatalf("database after remove = %d sources, want %d", got, n)
	}
}
