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
// Besides estimates it holds what an edge refinement rejected early leaves
// behind (DESIGN.md §9.1): an upper bound, the largest estimate still
// reachable when exact curtailment stopped it, or the cutoff a sequential
// rejection stopped it below. Either rejects a later probe whose threshold
// it already fails; otherwise the edge is drawn again, and its estimate
// replaces the entry.
//
// A cache is only valid for one estimator configuration (seed, sample
// count, analytic/one-sided flags, sequential budget); CacheTable keys
// caches by that configuration. Safe for concurrent use: the key space is
// lock-striped across shards so parallel refinement workers and concurrent
// queries do not contend on a single mutex, and hit/miss totals are kept
// in atomic counters.
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
	m        map[uint64]float64
	fifo     []uint64
}

// entryKind says what a cached edge probability p is.
type entryKind uint8

const (
	// entryEstimate: p is the edge's full-R estimate.
	entryEstimate entryKind = iota
	// entryBound: exact curtailment stopped the edge, and p is an upper
	// bound on its full-R estimate.
	entryBound
	// entryRejected: a sequential rejection stopped the edge, and p is
	// stop/R for the stop count it was tested against. A probe whose own
	// stop count is at least as large has a cutoff at least as high, so a
	// fresh draw would stop it at the same checkpoint or earlier.
	entryRejected
)

// cacheEntry is one edge's cached estimate, bound or rejection. A bound
// or a rejection rejects a probe whose reject test holds at p without a
// draw; in a probe's running product a bound stands in as p, a rejection
// as 1.
type cacheEntry struct {
	p    float64
	kind entryKind
}

// rejectedScale lifts a rejection's p out of [0, 1]: p = stop/R lies in
// [2⁻²⁰, 1) (stop ≥ 1, since no cutoff of 1/R ever rejects sequentially,
// and R ≤ stats.MaxSamples), and scaling by a power of two is exact.
const rejectedScale = 0x1p64

// stored encodes the entry as one word: estimates and bounds lie in
// [0, 1], so a bound is kept as its value with the sign bit set, and a
// rejection as −p·2⁶⁴, below −1.
func (e cacheEntry) stored() float64 {
	switch e.kind {
	case entryBound:
		return math.Copysign(e.p, -1)
	case entryRejected:
		return -e.p * rejectedScale
	}
	return e.p
}

func entryOf(w float64) cacheEntry {
	switch {
	case w < -1:
		return cacheEntry{p: -w / rejectedScale, kind: entryRejected}
	case math.Signbit(w):
		return cacheEntry{p: -w, kind: entryBound}
	}
	return cacheEntry{p: w}
}

// replaces reports whether e should replace the stored entry old: an
// estimate replaces anything and nothing replaces an estimate; between
// bounds and rejections the one that rejects more probes (the smaller p)
// is kept, and on a tie the bound, which is certain.
func (e cacheEntry) replaces(old cacheEntry) bool {
	switch {
	case e.kind == entryEstimate:
		return true
	case old.kind == entryEstimate:
		return false
	}
	return e.p < old.p || e.p == old.p && e.kind == entryBound
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
		c.shards[i].m = make(map[uint64]float64)
	}
	return c
}

// keyOf packs edge (a, b) of a source into one word: the source's 32 bits
// above the index b(b−1)/2 + a of the unordered column pair, a < b. It
// reports false for an edge the word cannot hold — a source outside int32,
// a column pair that is not two distinct non-negative columns, or a pair
// index past 32 bits (only a matrix wider than 92 682 columns has one) —
// and such an edge bypasses the cache: the cache is a pure memo, so a miss
// is always a correct answer. The key's stripe is also returned, routed
// from (source, a, b) with a SplitMix64-style mix so consecutive column
// indices spread across stripes.
func (c *EdgeProbCache) keyOf(source, a, b int) (uint64, *cacheShard, bool) {
	if a > b {
		a, b = b, a
	}
	if a < 0 || a == b || b >= 1<<17 || int(int32(source)) != source {
		return 0, nil, false
	}
	pair := uint64(b)*uint64(b-1)/2 + uint64(a) // b < 2¹⁷: no overflow
	if pair > math.MaxUint32 {
		return 0, nil, false
	}
	z := uint64(source)*0x9e3779b97f4a7c15 ^ uint64(a)*0xbf58476d1ce4e5b9 ^ uint64(b)*0x94d049bb133111eb
	z ^= z >> 29
	z *= 0xff51afd7ed558ccd
	z ^= z >> 32
	return uint64(uint32(source))<<32 | pair, &c.shards[z&c.mask], true
}

// Get returns the cached estimate of edge (a, b) in the given source and
// records a hit or miss. A bound or a rejection is not an estimate: it
// reads as a miss.
func (c *EdgeProbCache) Get(source, a, b int) (float64, bool) {
	e, ok := c.lookup(source, a, b)
	if ok = ok && e.kind == entryEstimate; ok {
		c.record(1, 0)
	} else {
		c.record(0, 1)
	}
	return e.p, ok
}

// lookup returns the entry of edge (a, b) without counting the probe;
// the caller records its probes once it knows which entries answered.
func (c *EdgeProbCache) lookup(source, a, b int) (cacheEntry, bool) {
	k, s, ok := c.keyOf(source, a, b)
	if !ok {
		return cacheEntry{}, false
	}
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

// Put stores the estimate of edge (a, b), replacing a bound or a
// rejection, and evicts the oldest entry of the key's shard when that
// shard is full.
func (c *EdgeProbCache) Put(source, a, b int, p float64) {
	c.put(source, a, b, cacheEntry{p: p})
}

// PutBound stores an upper bound on the estimate of edge (a, b) unless the
// cache already holds the estimate, or a bound or rejection at least as
// tight.
func (c *EdgeProbCache) PutBound(source, a, b int, ub float64) {
	c.put(source, a, b, cacheEntry{p: ub, kind: entryBound})
}

// PutRejected records that a sequential rejection stopped edge (a, b)
// while refinement rejected every estimate up to cut = stop/R, unless the
// cache already holds the estimate, or a bound or rejection at least as
// tight. cut must lie in [2⁻²⁰, 1), as every such cut does.
func (c *EdgeProbCache) PutRejected(source, a, b int, cut float64) {
	c.put(source, a, b, cacheEntry{p: cut, kind: entryRejected})
}

func (c *EdgeProbCache) put(source, a, b int, e cacheEntry) {
	k, s, ok := c.keyOf(source, a, b)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if w, exists := s.m[k]; exists {
		if e.replaces(entryOf(w)) {
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
	if int(int32(source)) != source {
		return 0 // keyOf never stores such a source
	}
	removed := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		kept := s.fifo[:0]
		for _, k := range s.fifo {
			if uint32(k>>32) == uint32(source) {
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
// configurations a store has seen (samples, seed, analytic, one-sided and
// sequential budget: entries depend on all five, so configurations never
// share a cache).
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
	seqDelta float64
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
	sig := estimatorSig{samples: params.Samples, seed: params.Seed, analytic: params.Analytic, oneSided: params.OneSided,
		seqDelta: params.seqBudget()}
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
