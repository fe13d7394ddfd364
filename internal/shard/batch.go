package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/exec"
	"github.com/imgrn/imgrn/internal/obs"
)

// Scatter-gather execution (DESIGN.md §10, §14): the one function in this
// package that fans a request out over the shards (QueryBatch) and the one
// that merges per-shard runs (its mergeItem). A solo query is a batch of
// one (query.go), and P = 1 is a scatter over one shard.
//
// One scatter serves the whole batch: plans resolve once per distinct
// request group at the coordinator (the resolved *plan.Plan pointer
// travels in every per-shard params copy, so every shard executes the
// same decisions), every matrix item's query graph is inferred once at
// the coordinator (inference reads only the matrix, never the shards), and
// each shard receives the full batch as pre-inferred graph items with the
// caller's params plus its own cache handle. Every refinement draw is
// addressed by (Seed, source, column pair) and placement partitions the
// sources, so answers are a function of (database, params) alone — the
// same at every P and placement. Each shard runs its own core.QueryBatch
// under one read-lock acquisition on an exec worker pool. A per-item
// countdown merges each item as its last shard completes it, so results
// stream out as individual queries finish (possibly out of item order;
// the server serializes frames). The item's obs.Tracer (concurrency-safe)
// collects every shard's pipeline spans, then one scatter span and one
// merge span; per-shard Stats are summed into one aggregate (durations
// become aggregate across-shard time, like the Workers>1 refinement
// sub-stages), except Stats.Answers, which is the number of answers
// returned.
//
// A shard's item error fails that item only; the other shards still run
// it to completion (nothing cancels them), and the batch context is the
// only batch-wide abort.
//
// opts.ItemTimeout is one window per pipeline run: a matrix item's
// coordinator-side inference gets one, and each shard's run of the item
// gets its own.
//
// Items with K > 0 refine against a per-item shared core.TopKSink wired
// through every shard's params: candidates verify in descending Lemma-5
// upper-bound order and a shard skips every candidate whose bound falls
// to the sink floor — the k-th best probability found so far across ALL
// shards (cross-shard Markov-bound early termination).

// QueryBatch answers a batch of queries scatter-gather. It returns one
// result per item in item order; opts.OnResult streams each item as its
// merge completes. Item errors are per item — a failed item never fails
// its siblings — and the batch-level counters aggregate across shards.
func (c *Coordinator) QueryBatch(ctx context.Context, items []core.BatchItem, opts core.BatchOptions) ([]core.BatchResult, core.BatchStats) {
	nShards := len(c.shards)
	results := make([]core.BatchResult, len(items))
	bst := core.BatchStats{Queries: len(items)}
	var bstMu sync.Mutex

	// Streaming is concurrent across items here (the last shard of an
	// item fires its merge); serialize the caller's callback.
	var emitMu sync.Mutex
	finish := func(i int, res core.BatchResult) {
		results[i] = res
		if res.Err != nil {
			bstMu.Lock()
			bst.Errors++
			bstMu.Unlock()
		}
		if opts.OnResult != nil {
			emitMu.Lock()
			opts.OnResult(i, res)
			emitMu.Unlock()
		}
	}

	// Shared prologue: plan resolution once per distinct request group,
	// then one inference per matrix item.
	start := time.Now()
	planErrs := core.ResolveBatchPlans(items)
	type liveItem struct {
		orig int // index into items/results
		base core.Stats
		sink *core.TopKSink
	}
	live := make([]liveItem, 0, len(items))
	for i := range items {
		if planErrs[i] != nil {
			finish(i, core.BatchResult{Err: planErrs[i]})
			continue
		}
		it := liveItem{orig: i}
		if items[i].Graph == nil {
			if items[i].Matrix == nil {
				finish(i, core.BatchResult{Err: core.ErrNoBatchQuery})
				continue
			}
			ictx, cancel := ctx, context.CancelFunc(func() {})
			if opts.ItemTimeout > 0 {
				ictx, cancel = context.WithTimeout(ctx, opts.ItemTimeout)
			}
			q, ist, err := c.inferOnce(ictx, items[i].Matrix, items[i].Params)
			cancel()
			if err != nil {
				finish(i, core.BatchResult{Err: err})
				continue
			}
			items[i].Graph = q
			it.base = ist
		} else {
			it.base.QueryVertices = items[i].Graph.NumVertices()
			it.base.QueryEdges = items[i].Graph.NumEdges()
		}
		it.base.Plan = items[i].Params.Plan
		if items[i].K > 0 {
			it.sink = core.NewTopKSink(items[i].K, items[i].Params.Alpha)
		}
		live = append(live, it)
	}
	if len(live) == 0 {
		return results, bst
	}

	// One scatter: each shard runs the whole surviving batch as graph
	// items under its read lock. Per-item countdown latches fire the
	// cross-shard merge the moment an item's last shard retires it.
	shardResults := make([][]core.BatchResult, nShards)
	for s := range shardResults {
		shardResults[s] = make([]core.BatchResult, len(live))
	}
	remaining := make([]atomic.Int32, len(live))
	for p := range remaining {
		remaining[p].Store(int32(nShards))
	}
	scatterStart := time.Now()
	mergeItem := func(pos int) {
		li := live[pos]
		st := li.base
		var runs [][]core.Answer
		perShard := make([]core.Stats, 0, nShards)
		for s := 0; s < nShards; s++ {
			r := shardResults[s][pos]
			if r.Err != nil {
				finish(li.orig, core.BatchResult{Err: fmt.Errorf("shard %d: %w", s, r.Err)})
				return
			}
			runs = append(runs, r.Answers)
			perShard = append(perShard, r.Stats)
		}
		core.MergeScatterStats(&st, perShard)
		produced := st.Answers
		tr := items[li.orig].Params.Trace
		tr.Record(obs.StageScatter, scatterStart, time.Since(scatterStart), nShards, produced)
		mStart := time.Now()
		var merged []core.Answer
		if li.sink != nil {
			merged = li.sink.Results()
		} else {
			// Placement partitions the sources, so the union has no
			// duplicates; each run is already Source-ascending, and the
			// streaming k-way merge preserves that order without
			// re-sorting the union.
			merged = core.MergeAnswerRuns(runs)
		}
		tr.Record(obs.StageMerge, mStart, time.Since(mStart), produced, len(merged))
		st.Answers = len(merged)
		st.Total = time.Since(start)
		finish(li.orig, core.BatchResult{Answers: merged, Stats: st})
	}

	err := exec.New(ctx, nil, nShards).ForEach(nShards, func(s int) error {
		sh := c.shards[s]
		shardItems := make([]core.BatchItem, len(live))
		for pos, li := range live {
			sp := items[li.orig].Params
			sp.Sink = li.sink
			sp.Cache = sh.caches.For(sp)
			// The plan traveled with the params; K stays 0 at shard level
			// (the shared sink owns the trim).
			shardItems[pos] = core.BatchItem{Graph: items[li.orig].Graph, Params: sp}
		}
		shardOpts := core.BatchOptions{
			ItemTimeout: opts.ItemTimeout,
			OnResult: func(pos int, res core.BatchResult) {
				shardResults[s][pos] = res
				if res.Err == nil {
					sh.recordQuery(res.Stats)
				}
				if remaining[pos].Add(-1) == 0 {
					mergeItem(pos)
				}
			},
		}
		sh.mu.RLock()
		core.QueryBatch(ctx, sh.idx, shardItems, shardOpts)
		sh.mu.RUnlock()
		return nil
	})
	// A cancelled scatter context can keep some shard closures from ever
	// running; their items' countdowns never fire. Fail those items
	// explicitly (all merges that will happen have happened: ForEach is a
	// barrier and mergeItem runs synchronously inside the closures).
	for pos := range live {
		if remaining[pos].Load() > 0 {
			e := err
			if e == nil {
				e = ctx.Err()
			}
			if e == nil {
				e = context.Canceled
			}
			finish(live[pos].orig, core.BatchResult{Err: e})
		}
	}
	return results, bst
}
