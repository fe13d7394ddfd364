package shard

import (
	"context"
	"fmt"

	"github.com/imgrn/imgrn/internal/core"
)

// The in-process leg (DESIGN.md §10): the Coordinator answers queries
// through its embedded Scatter (scatter.go) with one QueryShardBatch leg
// per local shard. A shard server runs the same function for each
// /cluster/exec request, so a remote leg executes exactly what a local one
// does.

// legs is the Coordinator's Scatter.Legs: every batch runs QueryShardBatch
// on each shard.
func (c *Coordinator) legs(context.Context, []core.BatchItem) Leg { return c.QueryShardBatch }

// QueryShardBatch runs a batch of graph items — their params already
// carrying the item's plan and, for top-k, sink — on local shard `local`:
// cache handles from the shard's own store, one core.QueryBatch under the
// shard's read lock, lifetime counters recorded. Results arrive through
// opts.OnResult. It writes the cache handles into items.
func (c *Coordinator) QueryShardBatch(ctx context.Context, local int, items []core.BatchItem, opts core.BatchOptions) error {
	if local < 0 || local >= len(c.shards) {
		return fmt.Errorf("shard: local shard %d out of range [0,%d)", local, len(c.shards))
	}
	s := c.shards[local]
	for i := range items {
		items[i].Params.Cache = s.caches.For(items[i].Params)
	}
	s.mu.RLock()
	results, _ := core.QueryBatch(ctx, s.idx, items, opts)
	s.mu.RUnlock()
	for _, r := range results {
		if r.Err == nil {
			s.recordQuery(r.Stats)
		}
	}
	return nil
}

// recordQuery folds one served query into the shard's lifetime counters.
func (s *shardState) recordQuery(st core.Stats) {
	s.queries.Add(1)
	s.ioCost.Add(st.IOCost)
	s.ioHits.Add(st.IOHits)
}

// Matrices reports the number of indexed data sources — the Engine
// surface shared with the cluster coordinator, which has no Database
// view. It counts under the lock the database's writer holds, so it may
// run beside mutations.
func (c *Coordinator) Matrices() int {
	if c.sharedDB {
		s := c.shards[0]
		s.mu.RLock()
		defer s.mu.RUnlock()
		return c.db.Len()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.db.Len()
}
