package core

import (
	"sync"
	"testing"

	"github.com/imgrn/imgrn/internal/randgen"
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
	if e, ok := c.lookup(1, 2, 3); !ok || !e.bound || e.p != 0.5 {
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
