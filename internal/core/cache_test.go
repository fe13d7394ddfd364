package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/synth"
)

func TestEdgeProbCacheBasics(t *testing.T) {
	c := NewEdgeProbCache(4)
	if _, ok := c.Get(1, 2, 3); ok {
		t.Fatal("empty cache returned a value")
	}
	c.Put(1, 2, 3, 0.75)
	if p, ok := c.Get(1, 2, 3); !ok || p != 0.75 {
		t.Errorf("Get = %v, %v", p, ok)
	}
	// Canonical key: (a, b) and (b, a) are the same edge.
	if p, ok := c.Get(1, 3, 2); !ok || p != 0.75 {
		t.Errorf("reversed Get = %v, %v", p, ok)
	}
	// Different source is a different key.
	if _, ok := c.Get(2, 2, 3); ok {
		t.Error("cross-source hit")
	}
	// Update in place does not grow the cache.
	c.Put(1, 3, 2, 0.5)
	if p, _ := c.Get(1, 2, 3); p != 0.5 {
		t.Error("update lost")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestEdgeProbCacheEviction(t *testing.T) {
	c := NewEdgeProbCache(3)
	c.Put(0, 0, 1, 0.1)
	c.Put(0, 0, 2, 0.2)
	c.Put(0, 0, 3, 0.3)
	c.Put(0, 0, 4, 0.4) // evicts the oldest (0,0,1)
	if _, ok := c.Get(0, 0, 1); ok {
		t.Error("oldest entry should be evicted")
	}
	for b, want := range map[int]float64{2: 0.2, 3: 0.3, 4: 0.4} {
		if p, ok := c.Get(0, 0, b); !ok || p != want {
			t.Errorf("entry (0,0,%d) = %v, %v", b, p, ok)
		}
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestEdgeProbCacheConcurrent(t *testing.T) {
	c := NewEdgeProbCache(1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := randgen.New(uint64(w))
			for i := 0; i < 2000; i++ {
				src := rng.Intn(10)
				a, b := rng.Intn(20), rng.Intn(20)
				if a == b {
					continue
				}
				if p, ok := c.Get(src, a, b); ok && (p < 0 || p > 1) {
					t.Errorf("corrupted value %v", p)
					return
				}
				c.Put(src, a, b, rng.Float64())
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 1024 {
		t.Errorf("cache exceeded capacity: %d", c.Len())
	}
}

func TestEdgeProbCacheInvalidateSource(t *testing.T) {
	c := NewEdgeProbCache(64)
	for src := 0; src < 3; src++ {
		c.Put(src, 0, 1, float64(src)+0.1)
		c.Put(src, 1, 2, float64(src)+0.2)
	}
	c.Get(0, 0, 1) // hit, must survive the invalidation below
	if n := c.InvalidateSource(1); n != 2 {
		t.Errorf("InvalidateSource removed %d entries, want 2", n)
	}
	if _, ok := c.Get(1, 0, 1); ok {
		t.Error("invalidated entry still cached")
	}
	if _, ok := c.Get(1, 1, 2); ok {
		t.Error("invalidated entry still cached")
	}
	// Other sources' entries stay warm.
	for _, src := range []int{0, 2} {
		if p, ok := c.Get(src, 0, 1); !ok || p != float64(src)+0.1 {
			t.Errorf("source %d entry lost by unrelated invalidation: %v, %v", src, p, ok)
		}
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
	// Hit/miss counters survive: 3 hits above plus the 2 misses on the
	// invalidated keys, plus the initial hit.
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 2 {
		t.Errorf("stats after invalidation = %+v, want 3 hits, 2 misses", st)
	}
	// Invalidating an absent source is a no-op.
	if n := c.InvalidateSource(42); n != 0 {
		t.Errorf("InvalidateSource(absent) = %d", n)
	}
}

func TestEdgeProbCacheStats(t *testing.T) {
	c := NewEdgeProbCache(16)
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("fresh cache stats = %+v", st)
	}
	c.Get(1, 2, 3) // miss
	c.Put(1, 2, 3, 0.5)
	c.Get(1, 2, 3) // hit
	c.Get(1, 3, 2) // hit (canonical key)
	c.Get(9, 2, 3) // miss
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 hits, 2 misses", st)
	}
}

func TestEdgeProbCacheShardedCapacity(t *testing.T) {
	// Large capacities stripe across shards; the total bound must hold and
	// no entry may vanish before the cache fills.
	const capacity = 1 << 10
	c := NewEdgeProbCache(capacity)
	for i := 0; i < capacity/2; i++ {
		c.Put(i, 0, 1, float64(i))
	}
	for i := 0; i < capacity/2; i++ {
		if p, ok := c.Get(i, 0, 1); !ok || p != float64(i) {
			t.Fatalf("entry %d lost before capacity: %v, %v", i, p, ok)
		}
	}
	for i := capacity / 2; i < 4*capacity; i++ {
		c.Put(i, 0, 1, float64(i))
	}
	if n := c.Len(); n > capacity {
		t.Fatalf("Len = %d exceeds capacity %d", n, capacity)
	}
}

// TestEdgeProbCacheBounds: a bound is no estimate (Get misses it), a
// tighter bound replaces a looser one and never the reverse, an estimate
// replaces a bound, and a bound never replaces an estimate.
func TestEdgeProbCacheBounds(t *testing.T) {
	c := NewEdgeProbCache(16)
	c.PutBound(1, 2, 3, 0.5)
	if _, ok := c.Get(1, 2, 3); ok {
		t.Error("Get returned a bound as an estimate")
	}
	c.PutBound(1, 3, 2, 0.7)
	if e, ok := c.lookup(1, 2, 3); !ok || e.kind != entryBound || e.p != 0.5 {
		t.Errorf("looser bound replaced a tighter one: %+v, %v", e, ok)
	}
	c.PutBound(1, 2, 3, 0.25)
	if e, _ := c.lookup(1, 2, 3); e.p != 0.25 {
		t.Errorf("tighter bound not kept: %+v", e)
	}
	c.Put(1, 2, 3, 0.125)
	c.PutBound(1, 2, 3, 0.0625)
	if p, ok := c.Get(1, 2, 3); !ok || p != 0.125 {
		t.Errorf("estimate = %v, %v; want 0.125 kept over a later bound", p, ok)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

// TestEdgeProbCacheRejections: a sequential rejection round-trips
// through the one-word encoding exactly, reads as a miss to Get, never
// replaces an estimate and is replaced by one; between bounds and
// rejections the smaller value is kept, a bound on a tie.
func TestEdgeProbCacheRejections(t *testing.T) {
	c := NewEdgeProbCache(16)
	for _, cut := range []float64{0x1p-20, 1.0 / 1107, 409.0 / 1024, 0.5, 1023.0 / 1024, math.Nextafter(1, 0)} {
		c.PutRejected(1, 2, 3, cut)
		if e, ok := c.lookup(1, 2, 3); !ok || e.kind != entryRejected || e.p != cut {
			t.Errorf("rejection at %v read back as %+v, %v", cut, e, ok)
		}
		c.InvalidateSource(1)
	}
	c.PutRejected(1, 2, 3, 0.5)
	if _, ok := c.Get(1, 2, 3); ok {
		t.Error("Get returned a rejection as an estimate")
	}
	for _, step := range []struct {
		put  func()
		want cacheEntry
	}{
		{func() { c.PutRejected(1, 2, 3, 0.625) }, cacheEntry{0.5, entryRejected}},
		{func() { c.PutBound(1, 2, 3, 0.75) }, cacheEntry{0.5, entryRejected}},
		{func() { c.PutBound(1, 2, 3, 0.5) }, cacheEntry{0.5, entryBound}},
		{func() { c.PutRejected(1, 2, 3, 0.5) }, cacheEntry{0.5, entryBound}},
		{func() { c.PutRejected(1, 3, 2, 0.25) }, cacheEntry{0.25, entryRejected}},
		{func() { c.PutBound(1, 2, 3, 0.125) }, cacheEntry{0.125, entryBound}},
		{func() { c.Put(1, 2, 3, 0.375) }, cacheEntry{0.375, entryEstimate}},
		{func() { c.PutRejected(1, 2, 3, 0.0625) }, cacheEntry{0.375, entryEstimate}},
	} {
		step.put()
		if e, _ := c.lookup(1, 2, 3); e != step.want {
			t.Fatalf("after the put the entry is %+v, want %+v", e, step.want)
		}
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

// countRejections returns the sequential rejections a cache holds.
func countRejections(c *EdgeProbCache) int {
	n := 0
	for i := range c.shards {
		for _, w := range c.shards[i].m {
			if entryOf(w).kind == entryRejected {
				n++
			}
		}
	}
	return n
}

// TestSeqRejectionsKeepWarmEqualToCold: a cache warmed by Monte Carlo
// queries whose refinement stops edges sequentially answers a query
// exactly as a cold cache does at the same γ and at a higher one, and a
// repeat at the same thresholds draws nothing: a cached rejection rejects
// only probes whose fresh draw would stop at the same checkpoint or
// earlier. A cache warmed at stricter thresholds answers a looser query as
// a cold one does too. The same holds through QueryBatch, whose items
// share one cache in item order.
func TestSeqRejectionsKeepWarmEqualToCold(t *testing.T) {
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: 60, NMin: 30, NMax: 34, LMin: 10, LMax: 20, Dist: synth.Uniform, GenePool: 40, Seed: 88,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(ds.DB, index.Options{D: 2, Samples: 32, Seed: 88})
	if err != nil {
		t.Fatal(err)
	}
	rng := randgen.New(89)
	run := func(p Params, mq *gene.Matrix) ([]Answer, Stats) {
		proc, err := NewProcessor(idx, p)
		if err != nil {
			t.Fatal(err)
		}
		ans, st, err := proc.Query(mq)
		if err != nil {
			t.Fatal(err)
		}
		return ans, st
	}
	rejections, answers := 0, 0
	for qi := 0; qi < 8; qi++ {
		mq, _, err := ds.ExtractQuery(rng, 4+qi%5)
		if err != nil {
			t.Fatal(err)
		}
		base := Params{Gamma: 0.4, Alpha: 0.1, Samples: 1024, Seed: 90 + uint64(qi), Workers: 1 + qi%2}
		higher := base
		higher.Gamma = 0.5
		want, _ := run(base, mq)
		wantHigher, _ := run(higher, mq)
		answers += len(want) + len(wantHigher)

		warm := base
		warm.Cache = NewEdgeProbCache(0)
		if got, _ := run(warm, mq); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: a cold cache answered %+v, no cache %+v", qi, got, want)
		}
		rejections += countRejections(warm.Cache)
		got, st := run(warm, mq)
		if !reflect.DeepEqual(got, want) || st.Draws != 0 {
			t.Fatalf("query %d: the warm repeat answered %+v with %d draws, the cold run %+v", qi, got, st.Draws, want)
		}
		warmHigher := higher
		warmHigher.Cache = warm.Cache
		if got, _ := run(warmHigher, mq); !reflect.DeepEqual(got, wantHigher) {
			t.Fatalf("query %d: at γ = %v the warm cache answered %+v, a cold run %+v", qi, higher.Gamma, got, wantHigher)
		}
		// Rejections left by a stricter query stand in as 1 for a looser
		// one, which draws those edges again.
		strict := higher
		strict.Alpha, strict.Cache = 0.3, NewEdgeProbCache(0)
		run(strict, mq)
		rejections += countRejections(strict.Cache)
		looser := base
		looser.Cache = strict.Cache
		if got, _ := run(looser, mq); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: a cache warmed at γ = %v, α = %v answered %+v, a cold run %+v", qi, strict.Gamma, strict.Alpha, got, want)
		}

		items := []BatchItem{{Matrix: mq, Params: base}, {Matrix: mq, Params: base}, {Matrix: mq, Params: higher}}
		shared := NewEdgeProbCache(0)
		for i := range items {
			items[i].Params.Cache = shared
		}
		res, _ := QueryBatch(context.Background(), idx, items, BatchOptions{})
		for i, wantItem := range [][]Answer{want, want, wantHigher} {
			if res[i].Err != nil || !reflect.DeepEqual(res[i].Answers, wantItem) {
				t.Fatalf("query %d batch item %d: %+v (%v), a cold solo run %+v", qi, i, res[i].Answers, res[i].Err, wantItem)
			}
		}
		if d := res[1].Stats.Draws; d != 0 {
			t.Fatalf("query %d: the repeated batch item drew %d permutations", qi, d)
		}
	}
	if rejections == 0 || answers == 0 {
		t.Fatalf("sweep too weak: %d cached rejections, %d answers", rejections, answers)
	}
	t.Logf("%d cached rejections, %d answers", rejections, answers)
}

// TestCachedRejectionStandsInAsOne plants the one event a cached
// rejection can be wrong about — a sequential stop, at probability δ′,
// whose cut lies below the edge's full-R estimate — and checks that the
// entry never stands in as that cut while the candidate's other edges
// draw. Each case is a cold answer of at least two edges at γ = 0.4. Its
// edge A, the one verification draws last, gets a planted rejection at
// 0.8 of its estimate, and α sits between the product with that cut and
// the answer's probability. The other edges must then draw exactly what
// the cold run drew — full estimates, the same cache entries — before
// A's cut test rejects the candidate without drawing A. Standing in as
// the cut would tighten their cutoffs and curtail the edge drawn just
// before A.
func TestCachedRejectionStandsInAsOne(t *testing.T) {
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: 60, NMin: 30, NMax: 34, LMin: 10, LMax: 20, Dist: synth.Uniform, GenePool: 40, Seed: 88,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(ds.DB, index.Options{D: 2, Samples: 32, Seed: 88})
	if err != nil {
		t.Fatal(err)
	}
	const samples, gamma = 1024, 0.4
	rng := randgen.New(91)
	cases := 0
	for qi := 0; qi < 12; qi++ {
		mq, _, err := ds.ExtractQuery(rng, 3+qi%4)
		if err != nil {
			t.Fatal(err)
		}
		base := Params{Gamma: gamma, Alpha: 0.1, Samples: samples, Seed: 92 + uint64(qi)}
		proc, err := NewProcessor(idx, base)
		if err != nil {
			t.Fatal(err)
		}
		answers, _, err := proc.Query(mq)
		if err != nil {
			t.Fatal(err)
		}
		q, err := proc.InferQueryGraph(mq)
		if err != nil {
			t.Fatal(err)
		}
		qEdges, genes := q.Edges(), new(geneOrder).sort(q)
		for _, ans := range answers {
			if len(ans.Edges) < 2 {
				continue
			}
			m := ds.DB.BySource(ans.Source)
			col := func(v int) int { return m.IndexOf(q.Genes()[v]) }
			// A is last in drawPending's order: the largest analytic
			// probability, ties to the later query edge.
			last, key := 0, math.Inf(-1)
			for i, e := range ans.Edges {
				if k := proc.analytic.VecProb(m.StdCol(col(e.S)), m.StdCol(col(e.T))); k >= key {
					last, key = i, k
				}
			}
			epA := ans.Edges[last].P
			cut := math.Floor(0.8*epA*samples) / samples
			alpha := 0.9 * ans.Prob
			if cut <= gamma || cut <= alpha {
				continue // the cut must survive verifyExact's first pass
			}
			run := func(c *EdgeProbCache) candOutcome {
				p := base
				p.Alpha, p.Cache = alpha, c
				pr, err := NewProcessor(idx, p)
				if err != nil {
					t.Fatal(err)
				}
				ec := pr.newExec(context.Background())
				defer ec.Close()
				return pr.verifyCandidate(ec.IO(), q, genes, qEdges, ans.Source, &workerScratch{}, alpha, true)
			}
			cold, warm := NewEdgeProbCache(0), NewEdgeProbCache(0)
			if o := run(cold); !reflect.DeepEqual(o.answer, &ans) || o.draws != samples*len(ans.Edges) {
				t.Fatalf("query %d source %d: at α = %v the cold run answered %+v with %d draws, want %+v", qi, ans.Source, alpha, o.answer, o.draws, ans)
			}
			eA := ans.Edges[last]
			warm.PutRejected(ans.Source, col(eA.S), col(eA.T), cut)
			o := run(warm)
			if o.answer != nil || o.draws != samples*(len(ans.Edges)-1) {
				t.Fatalf("query %d source %d: a rejection at %v of the edge estimated %v answered %+v with %d draws, want none with %d",
					qi, ans.Source, cut, epA, o.answer, o.draws, samples*(len(ans.Edges)-1))
			}
			for i, e := range ans.Edges {
				got, _ := warm.lookup(ans.Source, col(e.S), col(e.T))
				want, _ := cold.lookup(ans.Source, col(e.S), col(e.T))
				if i == last {
					want = cacheEntry{kind: entryRejected, p: cut}
				}
				if got != want {
					t.Fatalf("query %d source %d edge %d: warm entry %+v, want %+v", qi, ans.Source, i, got, want)
				}
			}
			cases++
		}
	}
	if cases < 3 {
		t.Fatalf("sweep too weak: %d planted cases", cases)
	}
	t.Logf("%d planted cases", cases)
}

// TestCacheTableLRU: 10 000 fresh configurations keep the table at its
// bound, a configuration in use survives, the lifetime counters keep the
// dropped caches' hits and misses, and InvalidateSource reaches every
// live cache.
func TestCacheTableLRU(t *testing.T) {
	tab := &CacheTable{}
	hot := tab.For(Params{Seed: 1})
	hot.Put(7, 0, 1, 0.5)
	for seed := uint64(2); seed < 10002; seed++ {
		c := tab.For(Params{Seed: seed, Samples: 64})
		c.Get(7, 0, 1) // one miss per configuration
		c.Put(7, 0, 1, 0.25)
		if tab.For(Params{Seed: 1}) != hot {
			t.Fatalf("seed %d: the configuration in use was dropped", seed)
		}
		if n := tab.Len(); n > CacheTableSize {
			t.Fatalf("seed %d: %d live caches, bound %d", seed, n, CacheTableSize)
		}
	}
	if tab.For(Params{Seed: 2, Samples: 64}) == tab.For(Params{Seed: 2, Samples: 32}) {
		t.Error("two sample counts share a cache")
	}
	entries, st := tab.Stats()
	if st.Misses != 10000 || st.Hits != 0 {
		t.Errorf("lifetime stats %+v, want the 10000 misses of every cache ever held", st)
	}
	if entries > CacheTableSize {
		t.Errorf("%d entries in %d caches of one entry each", entries, CacheTableSize)
	}
	tab.InvalidateSource(7)
	if entries, _ := tab.Stats(); entries != 0 {
		t.Errorf("%d entries of the invalidated source survive", entries)
	}
}

// TestCacheTableConcurrent drives one table from several goroutines —
// lookups of shared and fresh configurations, puts, invalidations — for
// the race detector, and checks the bound and that a shared configuration
// resolves to one cache.
func TestCacheTableConcurrent(t *testing.T) {
	tab := &CacheTable{}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := randgen.New(uint64(w))
			for i := 0; i < 500; i++ {
				c := tab.For(Params{Seed: uint64(rng.Intn(2 * CacheTableSize))})
				c.Put(rng.Intn(4), 0, 1, rng.Float64())
				if rng.Intn(10) == 0 {
					tab.InvalidateSource(rng.Intn(4))
				}
			}
		}(w)
	}
	wg.Wait()
	if n := tab.Len(); n > CacheTableSize {
		t.Errorf("%d live caches, bound %d", n, CacheTableSize)
	}
	if tab.For(Params{Seed: 9}) != tab.For(Params{Seed: 9}) {
		t.Error("one configuration resolved to two caches")
	}
}

func TestCacheStatsSurfaceInQueryStats(t *testing.T) {
	ds, idx := buildFixture(t, 74)
	mq, _, err := ds.ExtractQuery(randgen.New(75), 4)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{Gamma: 0.4, Alpha: 0.2, Seed: 76, Samples: 32, Cache: NewEdgeProbCache(0)}
	proc, err := NewProcessor(idx, params)
	if err != nil {
		t.Fatal(err)
	}
	_, st1, err := proc.Query(mq)
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheHits != 0 {
		t.Errorf("first query reported %d hits on a cold cache", st1.CacheHits)
	}
	_, st2, err := proc.Query(mq)
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheMisses > 0 && st2.CacheHits == 0 {
		t.Errorf("repeat query reported no cache hits (first run: %d misses)", st1.CacheMisses)
	}
}

// TestCachedQueriesConsistent: with a shared cache, two identical queries
// return identical probabilities (MC noise memoized away), and results
// match the uncached run of the same processor seed.
func TestCachedQueriesConsistent(t *testing.T) {
	ds, idx := buildFixture(t, 70)
	mq, _, err := ds.ExtractQuery(randgen.New(71), 4)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewEdgeProbCache(0)
	params := Params{Gamma: 0.4, Alpha: 0.2, Seed: 72, Samples: 64, Cache: cache}
	run := func(p Params) []Answer {
		proc, err := NewProcessor(idx, p)
		if err != nil {
			t.Fatal(err)
		}
		ans, _, err := proc.Query(mq)
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}
	first := run(params)
	second := run(params) // served from cache
	if len(first) != len(second) {
		t.Fatalf("cached run answers differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].Source != second[i].Source || first[i].Prob != second[i].Prob {
			t.Errorf("answer %d differs under caching", i)
		}
	}
	if cache.Len() == 0 && len(first) > 0 {
		t.Error("cache never populated")
	}
}

// TestEdgeProbCachePackedKey pins the one-word key: negative sources keep
// their own entries, (a, b) and (b, a) are one entry, InvalidateSource of
// a negative source removes that source's entries only, an edge whose key
// does not fit the word bypasses the cache, and every key routes to the
// stripe of the (source, a, b) mix.
func TestEdgeProbCachePackedKey(t *testing.T) {
	c := NewEdgeProbCache(64)
	for _, src := range []int{-1, -2, 1, math.MinInt32, math.MaxInt32} {
		c.Put(src, 2, 5, 0.5)
		c.Put(src, 7, 3, 0.25)
	}
	for _, src := range []int{-1, -2, 1, math.MinInt32, math.MaxInt32} {
		if p, ok := c.Get(src, 5, 2); !ok || p != 0.5 {
			t.Errorf("source %d: reversed Get = %v, %v", src, p, ok)
		}
		if p, ok := c.Get(src, 3, 7); !ok || p != 0.25 {
			t.Errorf("source %d: Get = %v, %v", src, p, ok)
		}
	}
	c.Put(-1, 5, 2, 0.75) // the same entry as (-1, 2, 5)
	if c.Len() != 10 {
		t.Errorf("Len = %d, want 10", c.Len())
	}
	if n := c.InvalidateSource(-1); n != 2 {
		t.Errorf("InvalidateSource(-1) removed %d entries, want 2", n)
	}
	if _, ok := c.Get(-1, 2, 5); ok {
		t.Error("invalidated entry of source -1 still cached")
	}
	for _, src := range []int{-2, 1, math.MinInt32, math.MaxInt32} {
		if _, ok := c.Get(src, 2, 5); !ok {
			t.Errorf("source %d lost its entry to InvalidateSource(-1)", src)
		}
	}

	// Keys past the word: the largest pair index of 32 bits is
	// b(b−1)/2 + a = 2³²−1 at (37074, 92682); one column further is out,
	// as are a source outside int32 (it would alias a negative one), a
	// self pair and a negative column.
	c.Put(0, 37074, 92682, 0.5)
	if p, ok := c.Get(0, 92682, 37074); !ok || p != 0.5 {
		t.Errorf("largest packable pair: Get = %v, %v", p, ok)
	}
	before := c.Len()
	for _, k := range [][3]int{{0, 37075, 92682}, {0, 0, 1 << 20}, {1<<32 - 1, 2, 5}, {-1 << 40, 2, 5}, {0, 4, 4}, {0, -1, 4}} {
		c.Put(k[0], k[1], k[2], 0.5)
		c.PutBound(k[0], k[1], k[2], 0.5)
		if _, ok := c.Get(k[0], k[1], k[2]); ok {
			t.Errorf("unpackable key %v hit", k)
		}
		if _, ok := c.lookup(k[0], k[1], k[2]); ok {
			t.Errorf("unpackable key %v stored", k)
		}
	}
	if c.Len() != before {
		t.Errorf("unpackable keys grew the cache from %d to %d entries", before, c.Len())
	}
	if n := c.InvalidateSource(1<<32 - 1); n != 0 {
		t.Errorf("InvalidateSource of a source outside int32 removed %d entries", n)
	}

	// Stripes: routed by the (source, a, b) mix, so eviction order and the
	// counters do not depend on how the key is packed.
	striped := NewEdgeProbCache(0)
	rng := randgen.New(40)
	for i := 0; i < 5000; i++ {
		src, a, b := int(int32(rng.Uint64())), rng.Intn(3000), rng.Intn(3000)
		if a == b {
			continue
		}
		_, s, ok := striped.keyOf(src, a, b)
		lo, hi := min(a, b), max(a, b)
		z := uint64(src)*0x9e3779b97f4a7c15 ^ uint64(lo)*0xbf58476d1ce4e5b9 ^ uint64(hi)*0x94d049bb133111eb
		z ^= z >> 29
		z *= 0xff51afd7ed558ccd
		z ^= z >> 32
		if !ok || s != &striped.shards[z&striped.mask] {
			t.Fatalf("key (%d, %d, %d) routed off its stripe", src, a, b)
		}
	}
}
