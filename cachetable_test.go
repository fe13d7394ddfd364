package imgrn

import (
	"testing"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/randgen"
)

// moduleMatrix is a five-gene matrix of source src: with noise false,
// genes 0–2 are one co-expressed module (the query below matches it with
// near-certain edges); with noise true they are exactly uncorrelated, so
// no estimate of their edges can exceed 0.
func moduleMatrix(t *testing.T, rng *randgen.Rand, src int, noise bool) *Matrix {
	t.Helper()
	const l = 16
	cols := make([][]float64, 5)
	for j := range cols {
		cols[j] = make([]float64, l)
	}
	for i := 0; i < l; i++ {
		signal := rng.Gaussian(0, 1)
		cols[0][i] = signal
		cols[1][i] = signal + rng.Gaussian(0, 0.1)
		cols[2][i] = -signal + rng.Gaussian(0, 0.1)
		if noise { // orthogonal ±1 patterns
			cols[0][i] = float64(1 - 2*(i%2))
			cols[1][i] = float64(1 - 2*(i/2%2))
			cols[2][i] = float64(1 - 2*((i+i/2)%2))
		}
		cols[3][i], cols[4][i] = rng.Gaussian(0, 1), rng.Gaussian(0, 1)
	}
	m, err := NewMatrix(src, []GeneID{0, 1, 2, GeneID(10 + src), GeneID(100 + src)}, cols)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCacheTableBoundedUnderFreshSeeds: a client sending a fresh Monte
// Carlo seed with every query must not grow the engine's estimator caches
// without bound — after 10 000 such queries an unsharded engine holds at
// most core.CacheTableSize caches, and a sharded one no more
// entries than that many caches of this query can fill — and a mutation
// must still reach the live caches: a source replaced by uncorrelated data
// stops answering, where a stale cached estimate would keep it.
func TestCacheTableBoundedUnderFreshSeeds(t *testing.T) {
	queries := 10000
	if testing.Short() {
		queries = 2000
	}
	q := NewGraph([]GeneID{0, 1, 2})
	q.SetEdge(0, 1, 0.9)
	q.SetEdge(0, 2, 0.9)
	q.SetEdge(1, 2, 0.9)
	const replaced = 4
	for _, shards := range []int{0, 2} {
		rng := randgen.New(1207)
		db := NewDatabase()
		for src := 0; src < 10; src++ {
			if err := db.Add(moduleMatrix(t, rng, src, false)); err != nil {
				t.Fatal(err)
			}
		}
		opts := IndexOptions{D: 2, Samples: 16, Seed: 1208}
		var eng *Engine
		var err error
		if shards == 0 {
			eng, err = Open(db, opts)
		} else {
			eng, err = OpenSharded(db, opts, shards)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Every ablation switch on: each source holding the module is
		// verified, so a stale entry of the replaced source would be read.
		params := QueryParams{Gamma: 0.3, Alpha: 0.2, Samples: 16, DisableIndexPruning: true,
			DisablePivotPruning: true, DisableMarkovPruning: true}
		for i := 0; i < queries; i++ {
			params.Seed = uint64(i) + 1
			if _, _, err := eng.QueryGraph(q, params); err != nil {
				t.Fatal(err)
			}
		}
		if shards == 0 {
			if n := eng.caches.Len(); n > core.CacheTableSize {
				t.Errorf("unsharded engine holds %d estimator caches after %d fresh-seed queries", n, queries)
			}
		}
		for _, info := range eng.ShardStats() {
			if limit := core.CacheTableSize * q.NumEdges() * info.Sources; info.CacheEntries > limit {
				t.Errorf("shard %d holds %d cache entries after %d fresh-seed queries, more than %d caches can fill (%d)",
					info.Shard, info.CacheEntries, queries, core.CacheTableSize, limit)
			}
		}

		// The last seed's cache is live and holds the replaced source.
		if answers, _, err := eng.QueryGraph(q, params); err != nil || !answersSource(answers, replaced) {
			t.Fatalf("shards=%d: source %d does not answer before the mutation (err %v)", shards, replaced, err)
		}
		if err := eng.RemoveMatrix(replaced); err != nil {
			t.Fatal(err)
		}
		if err := eng.AddMatrix(moduleMatrix(t, rng, replaced, true)); err != nil {
			t.Fatal(err)
		}
		answers, _, err := eng.QueryGraph(q, params)
		if err != nil {
			t.Fatal(err)
		}
		if answersSource(answers, replaced) {
			t.Errorf("shards=%d: the replaced source still answers: the mutation left its cached estimates", shards)
		}
	}
}

func answersSource(answers []Answer, src int) bool {
	for _, a := range answers {
		if a.Source == src {
			return true
		}
	}
	return false
}
