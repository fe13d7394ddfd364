package shard

import (
	"context"
	"fmt"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
)

// Per-shard execution seams for the distributed serving tier
// (DESIGN.md §15). A shard server hosts a Coordinator over the subset of
// global shards placed on it; the remote coordinator ships each request
// with the resolved plan in the params, and these entry points execute
// exactly the per-shard leg of the in-process scatter: cache handle from
// the shard's own store, query under the shard's read lock, lifetime
// counters recorded. The caller — not these methods — owns the params
// (Sink, Plan); every leg runs the caller's Seed, which is what keeps a
// remote shard's answers byte-identical to the same shard of an
// in-process scatter.

// InferGraphContext infers the query GRN of mq once, with the infer stats
// and trace span recorded — the shared prologue of a scatter, exposed so a
// shard server can reproduce the coordinator-side inference locally
// (inference reads only the query matrix, so every server derives the
// identical graph).
func (c *Coordinator) InferGraphContext(ctx context.Context, mq *gene.Matrix, params core.Params) (*grn.Graph, core.Stats, error) {
	return c.inferOnce(ctx, mq, params)
}

// QueryShardBatch runs a pre-built batch — graph items whose params
// already carry the item's sink and plan — on local shard `local` through
// the shard's core.QueryBatch, exactly as a leg of the in-process batch
// scatter does. Results arrive through opts.OnResult.
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

// Matrices reports the number of indexed data sources — the Engine
// surface shared with the cluster coordinator, which has no Database
// view.
func (c *Coordinator) Matrices() int {
	return c.Database().Len()
}
