package imgrn_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	imgrn "github.com/imgrn/imgrn"
	"github.com/imgrn/imgrn/internal/randgen"
)

// openBoth opens the same fixture database with Open and at the given
// shard count; the fixture is rebuilt per engine so the two never share
// matrices.
func openBoth(t *testing.T, n int, seed uint64, shards int) (*imgrn.Engine, *imgrn.Engine, *imgrn.Database) {
	t.Helper()
	opts := imgrn.IndexOptions{D: 2, Samples: 24, Seed: seed}
	db := buildPublicFixture(t, n, seed)
	eng, err := imgrn.Open(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	sdb := buildPublicFixture(t, n, seed)
	seng, err := imgrn.OpenSharded(sdb, opts, shards)
	if err != nil {
		t.Fatal(err)
	}
	return eng, seng, db
}

// TestAnswersIndependentOfShardCount: answers are a function of the
// database and the params, not of placement. At P = 2, 3 and 5 the
// engine's Query, QueryTopK(k=2) and QueryBatch answers print byte-equal
// to Open's one shard under both estimators, both sidednesses and Workers
// 0 and 2, and the engine reports its shards and every indexed vector.
func TestAnswersIndependentOfShardCount(t *testing.T) {
	const n, seed, k = 18, 40, 2
	opts := imgrn.IndexOptions{D: 2, Samples: 24, Seed: seed}
	ref, err := imgrn.Open(buildPublicFixture(t, n, seed), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := ref.NumShards(); got != 1 {
		t.Fatalf("Open NumShards = %d", got)
	}
	db := ref.Database()
	var queries []*imgrn.Matrix
	for src, cols := range [][]int{{0, 1, 2}, {0, 1, 2, 3}, {0, 1, 2}, {1, 2, 4}} {
		qm, err := db.BySource(src).SubMatrix(-1, cols)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, qm)
	}
	var params []imgrn.QueryParams
	for _, analytic := range []bool{true, false} {
		for _, oneSided := range []bool{false, true} {
			for _, workers := range []int{0, 2} {
				params = append(params, imgrn.QueryParams{Gamma: 0.5, Alpha: 0.1, Samples: 32, Seed: 41,
					Analytic: analytic, OneSided: oneSided, Workers: workers})
			}
		}
	}
	// answers prints every answer list of the sweep, with its label.
	answers := func(eng *imgrn.Engine) (labels, out []string) {
		for _, p := range params {
			what := fmt.Sprintf("analytic=%v oneSided=%v workers=%d", p.Analytic, p.OneSided, p.Workers)
			var items []imgrn.BatchItem
			for qi, q := range queries {
				all, _, err := eng.Query(q, p)
				if err != nil {
					t.Fatal(err)
				}
				top, _, err := eng.QueryTopK(q, p, k)
				if err != nil {
					t.Fatal(err)
				}
				labels = append(labels, fmt.Sprintf("%s query %d", what, qi), fmt.Sprintf("%s top-%d %d", what, k, qi))
				out = append(out, fmt.Sprint(all), fmt.Sprint(top))
				items = append(items, imgrn.BatchItem{Matrix: q, Params: p}, imgrn.BatchItem{Matrix: q, Params: p, K: k})
			}
			results, _ := eng.QueryBatch(items, imgrn.BatchOptions{})
			for i, r := range results {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				labels = append(labels, fmt.Sprintf("%s batch item %d", what, i))
				out = append(out, fmt.Sprint(r.Answers))
			}
		}
		return labels, out
	}
	labels, want := answers(ref)
	// The sweep must have Monte Carlo answers, and top-k must trim.
	for i, p := range params {
		all, _, err := ref.Query(queries[0], p)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) <= k {
			t.Fatalf("params %d: query 0 has %d answers; top-%d trims nothing", i, len(all), k)
		}
	}
	for _, shards := range []int{2, 3, 5} {
		eng, err := imgrn.OpenSharded(buildPublicFixture(t, n, seed), opts, shards)
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.NumShards(); got != shards {
			t.Fatalf("NumShards = %d, want %d", got, shards)
		}
		if v, w := eng.IndexStats().Vectors, ref.IndexStats().Vectors; v != w {
			t.Errorf("P=%d: index vectors = %d, Open %d", shards, v, w)
		}
		_, got := answers(eng)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("P=%d %s:\n got %s\nwant %s", shards, labels[i], got[i], want[i])
			}
		}
	}
}

// TestInferGraphMatchesQuery: InferGraph returns the graph Query matches.
// Under Monte Carlo, at every worker count and both unsharded and over two
// shards, QueryGraph of the inferred graph answers bit-identically to
// Query of the matrix.
func TestInferGraphMatchesQuery(t *testing.T) {
	eng, seng, db := openBoth(t, 12, 46, 2)
	for _, e := range []struct {
		name string
		eng  *imgrn.Engine
	}{{"unsharded", eng}, {"shards=2", seng}} {
		for _, workers := range []int{0, 2, 4} {
			params := imgrn.QueryParams{Gamma: 0.5, Alpha: 0.05, Samples: 32, Seed: 47, Workers: workers}
			for src := 0; src < db.Len(); src++ {
				label := fmt.Sprintf("%s workers=%d query %d", e.name, workers, src)
				qm, err := db.BySource(src).SubMatrix(-1, []int{0, 1, 2, 3, 4})
				if err != nil {
					t.Fatal(err)
				}
				want, wst, err := e.eng.Query(qm, params)
				if err != nil {
					t.Fatal(err)
				}
				g, err := e.eng.InferGraph(qm, params)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := e.eng.QueryGraph(g, params)
				if err != nil {
					t.Fatal(err)
				}
				if g.NumEdges() != wst.QueryEdges {
					t.Errorf("%s: InferGraph has %d edges, Query matched %d", label, g.NumEdges(), wst.QueryEdges)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: QueryGraph(InferGraph) answers %v, Query %v", label, got, want)
				}
			}
		}
	}
}

// TestShardedTopKAndStats: sharded QueryTopK returns the ranking prefix,
// and ShardStats exposes per-shard counters after queries ran.
func TestShardedTopKAndStats(t *testing.T) {
	_, seng, db := openBoth(t, 16, 44, 4)
	params := imgrn.QueryParams{Gamma: 0.6, Alpha: 0.2, Seed: 45, Analytic: true}
	qm, err := db.BySource(0).SubMatrix(-1, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := seng.QueryTopK(qm, params, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 4 {
		t.Skipf("fixture produced only %d matches", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Prob > all[i-1].Prob {
			t.Fatal("sharded TopK(0) not ranked by probability")
		}
	}
	top3, _, err := seng.QueryTopK(qm, params, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top3) != 3 {
		t.Fatalf("TopK(3) returned %d", len(top3))
	}
	for i := range top3 {
		if top3[i].Source != all[i].Source || top3[i].Prob != all[i].Prob {
			t.Errorf("TopK(3)[%d] = (src=%d p=%v), want (src=%d p=%v)",
				i, top3[i].Source, top3[i].Prob, all[i].Source, all[i].Prob)
		}
	}

	infos := seng.ShardStats()
	if len(infos) != 4 {
		t.Fatalf("ShardStats returned %d shards", len(infos))
	}
	sources := 0
	var queries uint64
	for _, info := range infos {
		sources += info.Sources
		queries += info.Queries
	}
	if sources != 16 {
		t.Errorf("ShardStats sources sum to %d, want 16", sources)
	}
	if queries == 0 {
		t.Error("ShardStats recorded no queries")
	}
	// Open reports its one shard.
	eng, err := imgrn.Open(buildPublicFixture(t, 4, 46), imgrn.IndexOptions{D: 1, Samples: 8, Seed: 46})
	if err != nil {
		t.Fatal(err)
	}
	if infos := eng.ShardStats(); len(infos) != 1 || infos[0].Sources != 4 {
		t.Errorf("Open ShardStats = %+v, want one shard of 4 sources", infos)
	}
}

// TestShardedSaveIndexRejected: sharded engines cannot serialize their
// index yet and must say so instead of writing garbage.
func TestShardedSaveIndexRejected(t *testing.T) {
	db := buildPublicFixture(t, 6, 48)
	seng, err := imgrn.OpenSharded(db, imgrn.IndexOptions{D: 1, Samples: 8, Seed: 48}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := seng.SaveIndex(&buf); err == nil {
		t.Fatal("sharded SaveIndex should error")
	}
	if buf.Len() != 0 {
		t.Errorf("sharded SaveIndex wrote %d bytes alongside the error", buf.Len())
	}
}

// TestShardedConcurrentMixedWorkload is the sharded twin of
// TestEngineConcurrentMixedWorkload: scatter-gather queries racing
// mutations across shards, with answer sets pinned to the quiescent run
// (run with -race in CI).
func TestShardedConcurrentMixedWorkload(t *testing.T) {
	db := buildPublicFixture(t, 16, 50)
	eng, err := imgrn.OpenSharded(db, imgrn.IndexOptions{D: 2, Samples: 24, Seed: 50}, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := imgrn.QueryParams{Gamma: 0.6, Alpha: 0.4, Seed: 51, Analytic: true}

	queries := make([]*imgrn.Matrix, 4)
	want := make([][]imgrn.Answer, len(queries))
	for i := range queries {
		qm, err := db.BySource(i).SubMatrix(-1, []int{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = qm
		want[i], _, err = eng.Query(qm, params)
		if err != nil {
			t.Fatal(err)
		}
	}

	mkExtra := func(src int) *imgrn.Matrix {
		rng := randgen.New(uint64(src) * 13)
		genes := []imgrn.GeneID{imgrn.GeneID(4000 + src), imgrn.GeneID(5000 + src)}
		cols := make([][]float64, len(genes))
		for j := range cols {
			col := make([]float64, 16)
			for k := range col {
				col[k] = rng.Gaussian(0, 1)
			}
			cols[j] = col
		}
		m, err := imgrn.NewMatrix(src, genes, cols)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				src := 1000 + w*10 + rep
				if err := eng.AddMatrix(mkExtra(src)); err != nil {
					errCh <- err
					return
				}
				if err := eng.RemoveMatrix(src); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for i := range queries {
		for rep := 0; rep < 3; rep++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, _, err := eng.Query(queries[i], params)
				if err != nil {
					errCh <- err
					return
				}
				if len(got) != len(want[i]) {
					errCh <- fmt.Errorf("sharded query %d: %d answers, want %d", i, len(got), len(want[i]))
					return
				}
				for k := range got {
					if got[k].Source != want[i][k].Source || got[k].Prob != want[i][k].Prob {
						errCh <- fmt.Errorf("sharded query %d: answer %d differs", i, k)
						return
					}
				}
			}(i)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestShardedQueryCancellation mirrors the unsharded cancellation test
// through the scatter path.
func TestShardedQueryCancellation(t *testing.T) {
	db := buildPublicFixture(t, 10, 54)
	eng, err := imgrn.OpenSharded(db, imgrn.IndexOptions{D: 2, Samples: 24, Seed: 54}, 2)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := db.BySource(0).SubMatrix(-1, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	params := imgrn.QueryParams{Gamma: 0.6, Alpha: 0.4, Seed: 55, Analytic: true}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := eng.QueryContext(ctx, qm, params); !errors.Is(err, context.Canceled) {
		t.Fatalf("sharded QueryContext err = %v, want context.Canceled", err)
	}
	if _, _, err := eng.QueryTopKContext(ctx, qm, params, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("sharded QueryTopKContext err = %v, want context.Canceled", err)
	}
	if _, _, err := eng.QueryContext(context.Background(), qm, params); err != nil {
		t.Fatalf("background sharded QueryContext: %v", err)
	}
}

// TestCacheInvalidationPerSource: a mutation must invalidate only its own
// source's memoized edge probabilities — a repeat query after an
// unrelated mutation still hits the warm cache.
func TestCacheInvalidationPerSource(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := buildPublicFixture(t, 10, 58)
			var eng *imgrn.Engine
			var err error
			if shards == 1 {
				eng, err = imgrn.Open(db, imgrn.IndexOptions{D: 2, Samples: 24, Seed: 58})
			} else {
				eng, err = imgrn.OpenSharded(db, imgrn.IndexOptions{D: 2, Samples: 24, Seed: 58}, shards)
			}
			if err != nil {
				t.Fatal(err)
			}
			qm, err := db.BySource(0).SubMatrix(-1, []int{0, 1, 2})
			if err != nil {
				t.Fatal(err)
			}
			params := imgrn.QueryParams{Gamma: 0.6, Alpha: 0.4, Samples: 48, Seed: 59}
			if _, st, err := eng.Query(qm, params); err != nil {
				t.Fatal(err)
			} else if st.CacheMisses == 0 {
				t.Skip("fixture query never reached the cache")
			}
			warm, _, err := eng.Query(qm, params)
			if err != nil {
				t.Fatal(err)
			}
			// Mutate a source unrelated to the query's gene module.
			rng := randgen.New(60)
			col := make([]float64, 16)
			for k := range col {
				col[k] = rng.Gaussian(0, 1)
			}
			extra, err := imgrn.NewMatrix(777, []imgrn.GeneID{9000}, [][]float64{col})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.AddMatrix(extra); err != nil {
				t.Fatal(err)
			}
			after, st, err := eng.Query(qm, params)
			if err != nil {
				t.Fatal(err)
			}
			if st.CacheHits == 0 {
				t.Errorf("query after unrelated mutation got no cache hits (cache flushed?): %+v", st)
			}
			if st.CacheMisses != 0 {
				t.Errorf("query after unrelated mutation re-estimated %d edges", st.CacheMisses)
			}
			if len(after) != len(warm) {
				t.Fatalf("answers changed after unrelated mutation: %d vs %d", len(after), len(warm))
			}
			for k := range after {
				if after[k].Source != warm[k].Source || after[k].Prob != warm[k].Prob {
					t.Errorf("answer %d changed after unrelated mutation", k)
				}
			}
			// Mutating a source the query matched must drop only that
			// source's entries: the repeat query re-estimates something but
			// still hits the other sources' warm entries.
			if err := eng.RemoveMatrix(9); err != nil {
				t.Fatal(err)
			}
			_, st2, err := eng.Query(qm, params)
			if err != nil {
				t.Fatal(err)
			}
			if st2.CacheHits == 0 {
				t.Errorf("query after targeted mutation lost every warm entry: %+v", st2)
			}
		})
	}
}
