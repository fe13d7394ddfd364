package core

import (
	"math"
	"sync"
	"sync/atomic"
)

// EdgeProbCache memoizes exact edge-probability estimates across queries.
// The Monte Carlo estimate of one gene pair is the expensive unit of
// refinement work, and popular query patterns (biomarkers, cluster
// representatives) revisit the same pairs. Every estimate is a function of
// its edge's own stream (DESIGN.md §7.2), so the cache is a pure memo: a
// hit returns exactly what recomputing would.
//
// Besides estimates it holds upper bounds: refinement stops drawing an
// edge once its estimate can no longer pass (exact curtailment), and
// stores the largest estimate still reachable then. A bound rejects a later
// probe whose threshold it already fails; otherwise the edge is drawn
// again, and its estimate replaces the bound.
//
// A cache is only valid for one estimator configuration (seed, sample
// count, analytic/one-sided flags); CacheTable keys caches by that
// configuration. Safe for concurrent use: the key space is lock-striped
// across shards so parallel refinement workers and concurrent queries do
// not contend on a single mutex, and hit/miss totals are kept in atomic
// counters.
type EdgeProbCache struct {
	shards []cacheShard
	mask   uint64
	hits   atomic.Uint64
	misses atomic.Uint64
}

// cacheShard owns one stripe of the key space. Entries are cheap to
// recompute, so a simple FIFO bound per shard is enough. Values are
// cacheEntry.stored words: the map stays at one float64 per entry.
type cacheShard struct {
	mu       sync.Mutex
	capacity int
	m        map[edgeKey]float64
	fifo     []edgeKey
}

// cacheEntry is an estimate, or with bound set an upper bound on the
// estimate of a curtailed edge.
type cacheEntry struct {
	p     float64
	bound bool
}

// stored encodes the entry as one word: both estimates and bounds lie in
// [0, 1], so a bound is kept as its value with the sign bit set.
func (e cacheEntry) stored() float64 {
	if e.bound {
		return math.Copysign(e.p, -1)
	}
	return e.p
}

func entryOf(w float64) cacheEntry {
	return cacheEntry{p: math.Abs(w), bound: math.Signbit(w)}
}

type edgeKey struct {
	source int
	a, b   int
}

// cacheShards is the stripe count for large caches; small caches collapse
// to one shard so the configured capacity bound stays exact.
const cacheShards = 16

// NewEdgeProbCache returns a cache bounded to capacity entries
// (65536 when capacity <= 0). Capacities below one page per stripe use a
// single shard.
func NewEdgeProbCache(capacity int) *EdgeProbCache {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	shards := cacheShards
	if capacity < 16*cacheShards {
		shards = 1
	}
	c := &EdgeProbCache{shards: make([]cacheShard, shards), mask: uint64(shards - 1)}
	per := (capacity + shards - 1) / shards
	for i := range c.shards {
		c.shards[i].capacity = per
		c.shards[i].m = make(map[edgeKey]float64)
	}
	return c
}

func canonicalKey(source, a, b int) edgeKey {
	if a > b {
		a, b = b, a
	}
	return edgeKey{source: source, a: a, b: b}
}

// shardOf routes a key to its stripe with a SplitMix64-style mix so
// consecutive column indices spread across shards.
func (c *EdgeProbCache) shardOf(k edgeKey) *cacheShard {
	z := uint64(k.source)*0x9e3779b97f4a7c15 ^ uint64(k.a)*0xbf58476d1ce4e5b9 ^ uint64(k.b)*0x94d049bb133111eb
	z ^= z >> 29
	z *= 0xff51afd7ed558ccd
	z ^= z >> 32
	return &c.shards[z&c.mask]
}

// Get returns the cached estimate of edge (a, b) in the given source and
// records a hit or miss. A bound is not an estimate: it reads as a miss.
func (c *EdgeProbCache) Get(source, a, b int) (float64, bool) {
	e, ok := c.lookup(source, a, b)
	if ok = ok && !e.bound; ok {
		c.record(1, 0)
	} else {
		c.record(0, 1)
	}
	return e.p, ok
}

// lookup returns the entry of edge (a, b) without counting the probe;
// the caller records its probes once it knows which entries answered.
func (c *EdgeProbCache) lookup(source, a, b int) (cacheEntry, bool) {
	k := canonicalKey(source, a, b)
	s := c.shardOf(k)
	s.mu.Lock()
	w, ok := s.m[k]
	s.mu.Unlock()
	return entryOf(w), ok
}

// record adds probes to the lifetime hit and miss counts.
func (c *EdgeProbCache) record(hits, misses int) {
	if hits > 0 {
		c.hits.Add(uint64(hits))
	}
	if misses > 0 {
		c.misses.Add(uint64(misses))
	}
}

// Put stores the estimate of edge (a, b), replacing a bound, and evicts
// the oldest entry of the key's shard when that shard is full.
func (c *EdgeProbCache) Put(source, a, b int, p float64) {
	c.put(source, a, b, cacheEntry{p: p})
}

// PutBound stores an upper bound on the estimate of edge (a, b) unless the
// cache already holds the estimate or a bound at least as tight.
func (c *EdgeProbCache) PutBound(source, a, b int, ub float64) {
	c.put(source, a, b, cacheEntry{p: ub, bound: true})
}

func (c *EdgeProbCache) put(source, a, b int, e cacheEntry) {
	k := canonicalKey(source, a, b)
	s := c.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if w, exists := s.m[k]; exists {
		if old := entryOf(w); !e.bound || old.bound && e.p < old.p {
			s.m[k] = e.stored()
		}
		return
	}
	if len(s.m) >= s.capacity {
		oldest := s.fifo[0]
		s.fifo = s.fifo[1:]
		delete(s.m, oldest)
	}
	s.m[k] = e.stored()
	s.fifo = append(s.fifo, k)
}

// InvalidateSource drops every cached probability of one data source,
// returning the number of entries removed. Mutations call this instead of
// discarding the whole cache: edge probabilities are keyed by
// (source, column, column), so adding or removing a matrix can only stale
// the entries of that one source — every other source's entries (and the
// cache's lifetime hit/miss counters) stay warm.
func (c *EdgeProbCache) InvalidateSource(source int) int {
	removed := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		kept := s.fifo[:0]
		for _, k := range s.fifo {
			if k.source == source {
				delete(s.m, k)
				removed++
			} else {
				kept = append(kept, k)
			}
		}
		s.fifo = kept
		s.mu.Unlock()
	}
	return removed
}

// Len returns the number of cached entries across all shards.
func (c *EdgeProbCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// CacheStats aggregates cache effectiveness counters since creation.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// Stats returns the lifetime hit/miss totals of the cache.
func (c *EdgeProbCache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// CacheTable holds the edge-probability caches of the estimator
// configurations a store has seen (samples, seed, analytic, one-sided:
// estimates depend on all four, so configurations never share a cache).
// It keeps at most a fixed number and drops the least recently used: a
// client sending a fresh Monte Carlo seed per request would otherwise grow
// one cache per request, forever. The zero value is an empty table. Safe
// for concurrent use.
type CacheTable struct {
	mu      sync.Mutex
	live    []tableEntry // least recently used first
	retired CacheStats   // lifetime hits and misses of dropped caches
}

type tableEntry struct {
	sig   estimatorSig
	cache *EdgeProbCache
}

type estimatorSig struct {
	samples  int
	seed     uint64
	analytic bool
	oneSided bool
}

// CacheTableSize is the number of estimator configurations a CacheTable
// keeps: a few seeds or sample counts in use at once keep their caches
// warm, and each cache holds up to 65536 entries.
const CacheTableSize = 8

// For returns the cache of params' estimator configuration, creating it —
// and dropping the least recently used cache when the table is full — on
// first use. Resolve the plan first: an (Eps, Delta) request rewrites the
// sample count.
func (t *CacheTable) For(params Params) *EdgeProbCache {
	sig := estimatorSig{samples: params.Samples, seed: params.Seed, analytic: params.Analytic, oneSided: params.OneSided}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, e := range t.live {
		if e.sig == sig {
			copy(t.live[i:], t.live[i+1:])
			t.live[len(t.live)-1] = e
			return e.cache
		}
	}
	if len(t.live) == CacheTableSize {
		st := t.live[0].cache.Stats()
		t.retired.Hits += st.Hits
		t.retired.Misses += st.Misses
		t.live = append(t.live[:0], t.live[1:]...)
	}
	c := NewEdgeProbCache(0)
	t.live = append(t.live, tableEntry{sig: sig, cache: c})
	return c
}

// InvalidateSource drops one data source's entries from every live cache;
// mutations call it for the source they change.
func (t *CacheTable) InvalidateSource(source int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.live {
		e.cache.InvalidateSource(source)
	}
}

// Len returns the number of live caches.
func (t *CacheTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.live)
}

// Stats returns the entries held by the live caches and the table's
// lifetime hit/miss totals, dropped caches included.
func (t *CacheTable) Stats() (entries int, st CacheStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st = t.retired
	for _, e := range t.live {
		entries += e.cache.Len()
		cs := e.cache.Stats()
		st.Hits += cs.Hits
		st.Misses += cs.Misses
	}
	return entries, st
}
