// Package shard partitions a gene feature database into P independent
// index shards and runs IM-GRN queries over them scatter-gather
// (DESIGN.md §10). Each shard owns a full vertical slice of the engine
// below the facade: its own R*-tree index over its partition, its own
// pagestore accountant (so per-shard I/O is attributable), and its own
// per-estimator edge-probability caches. A Coordinator routes mutations to
// shards by a deterministic placement policy and answers queries through
// Scatter (scatter.go), the one scatter-gather of the repository: the
// cluster tier's remote coordinator runs it too, with a remote leg in
// place of the in-process one. It merges per-shard answers into either a
// full ordered union or a top-k, with cross-shard Markov-bound early
// termination through a per-item top-k sink.
//
// Sharding changes the concurrency profile, not the answers: every shard
// runs the caller's params, and every refinement draw is addressed by
// (Seed, source, column pair), so answers are a function of (database,
// params) alone — byte-identical at every P and placement, under both
// estimators.
package shard

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/index"
)

// Options configures a sharded coordinator.
type Options struct {
	// NumShards is the partition count P (1 when <= 0).
	NumShards int
	// Index configures each shard's index construction. All shards share
	// one Options value: embeddings derive their randomness from
	// (Index.Seed, Source), so a matrix embeds identically whichever shard
	// it lands on.
	Index index.Options
	// PlaceFunc, when non-nil, overrides the round-robin placement policy:
	// a source is placed on shard PlaceFunc(source) mod NumShards, both at
	// Build time and for every AddMatrix. The distributed tier supplies a
	// consistent-hash ring here so placement is a pure function of the
	// source ID — every coordinator and shard server derives the same
	// placement independently. The function must be deterministic and safe
	// for concurrent use; reopening a durable store must pass the same
	// function, or recovered placement diverges from new placements.
	PlaceFunc func(source int) int
	// ImbalanceRatio triggers the rebalance hook when the most loaded
	// shard holds more than ImbalanceRatio times the sources of the least
	// loaded one (2 when <= 1). Only meaningful with OnImbalance set.
	ImbalanceRatio float64
	// OnImbalance, when non-nil, is invoked after a mutation that leaves
	// the placement imbalanced, with the per-shard source counts. The hook
	// observes — it may schedule a rebuild at a larger P or log — but the
	// coordinator itself never moves sources between shards (rebalancing is
	// an explicit, offline decision). Called outside all coordinator locks.
	OnImbalance func(loads []int)
}

// placeOf maps a source onto a shard through PlaceFunc, clamped into
// [0, NumShards) so a misbehaving policy cannot index out of range.
func (o Options) placeOf(source int) int {
	sh := o.PlaceFunc(source) % o.NumShards
	if sh < 0 {
		sh += o.NumShards
	}
	return sh
}

func (o Options) withDefaults() Options {
	if o.NumShards <= 0 {
		o.NumShards = 1
	}
	if o.ImbalanceRatio <= 1 {
		o.ImbalanceRatio = 2
	}
	return o
}

// Coordinator routes queries and mutations across the shards. Methods are
// safe for concurrent use: queries take per-shard read locks (so queries
// proceed in parallel with each other on every shard), while a mutation
// write-locks only the one shard its source is placed on — mutations on
// different shards, and queries on the other P-1 shards, proceed
// concurrently.
type Coordinator struct {
	// Scatter answers every query over the shards (scatter.go), one
	// QueryShardBatch leg per shard.
	Scatter

	opts Options

	// mu guards the placement map, the round-robin cursor, and the global
	// database view. It is never held while a shard lock is held.
	mu        sync.Mutex
	placement map[int]int // source -> shard
	cursor    int         // round-robin placement position
	db        *gene.Database
	sharedDB  bool // db is shard 0's own database (FromIndex); skip double bookkeeping

	shards []*shardState
}

// shardState is one shard: an index over its partition plus the shard's
// own caches and lifetime counters.
type shardState struct {
	// mu is the shard's index lock: queries hold it for reading, mutations
	// for writing.
	mu  sync.RWMutex
	idx *index.Index

	// caches are the shard's per-estimator probability caches, holding
	// the edges of the shard's own sources. A mutation drops only its
	// source's entries (caches.InvalidateSource), leaving the rest warm.
	caches core.CacheTable

	// Lifetime counters for observability (Snapshot, /stats, /metrics).
	queries   atomic.Uint64
	mutations atomic.Uint64
	ioCost    atomic.Uint64 // per-query page accesses served by this shard
	ioHits    atomic.Uint64 // per-query buffer-pool absorptions
}

// Build partitions db round-robin into opts.NumShards shards and builds
// one index per shard. Matrices are shared by pointer between db and the
// shard partitions; db remains the coordinator's global view (Database).
func Build(db *gene.Database, opts Options) (*Coordinator, error) {
	if db == nil {
		return nil, fmt.Errorf("shard: nil database")
	}
	opts = opts.withDefaults()
	p := opts.NumShards

	parts := make([]*gene.Database, p)
	for i := range parts {
		parts[i] = gene.NewDatabase()
	}
	placement := make(map[int]int, db.Len())
	for i, m := range db.Matrices() {
		sh := i % p
		if opts.PlaceFunc != nil {
			sh = opts.placeOf(m.Source)
		}
		if err := parts[sh].Add(m); err != nil {
			return nil, fmt.Errorf("shard: partitioning source %d: %w", m.Source, err)
		}
		placement[m.Source] = sh
	}

	c := &Coordinator{
		opts:      opts,
		placement: placement,
		cursor:    db.Len(),
		db:        db,
		shards:    make([]*shardState, p),
	}
	c.Scatter = Scatter{Shards: p, Legs: c.legs}
	for i := range c.shards {
		idx, err := index.Build(parts[i], opts.Index)
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
		}
		c.shards[i] = &shardState{idx: idx}
	}
	return c, nil
}

// FromIndex wraps an already-built index as a single-shard coordinator —
// the path for indexes loaded from disk. The index's database is the
// coordinator's global view.
func FromIndex(idx *index.Index) *Coordinator {
	db := idx.DB()
	placement := make(map[int]int, db.Len())
	for _, m := range db.Matrices() {
		placement[m.Source] = 0
	}
	c := &Coordinator{
		opts:      Options{NumShards: 1, Index: idx.Options()}.withDefaults(),
		placement: placement,
		cursor:    db.Len(),
		db:        db,
		sharedDB:  true,
		shards:    []*shardState{{idx: idx}},
	}
	c.Scatter = Scatter{Shards: 1, Legs: c.legs}
	return c
}

// errSaveSharded rejects SaveIndex on coordinators of more than one shard.
var errSaveSharded = errors.New("shard: SaveIndex needs a one-shard coordinator")

// SaveIndex serializes a one-shard coordinator's index (index.Save) under
// the shard's write lock. A coordinator of more shards has no one index to
// save and returns an error without writing.
func (c *Coordinator) SaveIndex(w io.Writer) error {
	if len(c.shards) > 1 {
		return errSaveSharded
	}
	s := c.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Save(w)
}

// NumShards returns the partition count P.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// D returns the per-matrix pivot count of the shard indexes.
func (c *Coordinator) D() int { return c.shards[0].idx.D() }

// Database returns the coordinator's global database view: every source
// across all shards. Safe for concurrent use with queries; mutations
// update it atomically with their shard.
func (c *Coordinator) Database() *gene.Database {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.db
}

// IndexStats aggregates the shards' index construction statistics:
// vectors, nodes, pages and build time sum across shards; tree height is
// the maximum.
func (c *Coordinator) IndexStats() index.BuildStats {
	var out index.BuildStats
	for _, s := range c.shards {
		s.mu.RLock()
		bs := s.idx.Stats()
		s.mu.RUnlock()
		out.Elapsed += bs.Elapsed
		out.Vectors += bs.Vectors
		out.TreeNodes += bs.TreeNodes
		out.Pages += bs.Pages
		out.PivotCostSum += bs.PivotCostSum
		if bs.TreeHeight > out.TreeHeight {
			out.TreeHeight = bs.TreeHeight
		}
	}
	return out
}

// ShardInfo is one shard's observability snapshot.
type ShardInfo struct {
	// Shard is the shard number in [0, P).
	Shard int
	// Sources and Vectors size the shard's partition: data sources placed
	// on it and gene vectors in its R*-tree.
	Sources int
	Vectors int
	// Queries and Mutations count the operations the shard has served.
	Queries   uint64
	Mutations uint64
	// IOCost and IOHits aggregate the per-query simulated page accesses
	// and buffer absorptions charged against this shard's index.
	IOCost uint64
	IOHits uint64
	// CacheEntries, CacheHits and CacheMisses aggregate the shard's
	// edge-probability caches across estimator configurations: entries of
	// the live caches, lifetime hits and misses of every cache the shard
	// ever held (core.CacheTable).
	CacheEntries int
	CacheHits    uint64
	CacheMisses  uint64
}

// Snapshot reports the per-shard counters, one entry per shard in shard
// order. Counters are read atomically but not as one cross-shard
// transaction; concurrent queries may land between entries.
func (c *Coordinator) Snapshot() []ShardInfo {
	out := make([]ShardInfo, len(c.shards))
	for i, s := range c.shards {
		s.mu.RLock()
		sources := s.idx.DB().Len()
		vectors := s.idx.Stats().Vectors
		s.mu.RUnlock()
		info := ShardInfo{
			Shard:     i,
			Sources:   sources,
			Vectors:   vectors,
			Queries:   s.queries.Load(),
			Mutations: s.mutations.Load(),
			IOCost:    s.ioCost.Load(),
			IOHits:    s.ioHits.Load(),
		}
		entries, cs := s.caches.Stats()
		info.CacheEntries, info.CacheHits, info.CacheMisses = entries, cs.Hits, cs.Misses
		out[i] = info
	}
	return out
}
