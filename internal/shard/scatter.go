package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/exec"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/obs"
)

// The one scatter-gather (DESIGN.md §10, §14, §15). Both coordinators —
// the in-process Coordinator and the remote cluster.Coordinator — answer
// every query through Scatter.QueryBatch; they differ only in their leg,
// the function that runs a batch on one shard. The in-process leg is
// QueryShardBatch on a local shard; the remote leg ships the batch to a
// replica of a global shard (hedged) and streams its frames back. A solo
// query is a batch of one.
//
// The scatter owns everything above the leg:
//
//   - validation and plan resolution, once per distinct request group
//     (the resolved *plan.Plan travels in every leg's params, so every
//     shard executes the same decisions);
//   - one query-graph inference per matrix item (core.InferQuery: it reads
//     only the matrix), so every leg receives graph items only;
//   - one top-k sink per K > 0 item, in the item's params: an in-process
//     leg refines against it directly (cross-shard Markov-bound early
//     termination), a remote leg feeds it from the shards' accept frames
//     and publishes its floor;
//   - a per-item countdown that merges an item the moment its last leg
//     reports it — first result wins, so a hedged or retried leg's replay
//     never counts twice — with one scatter span and one merge span on the
//     item's tracer;
//   - failed-leg handling: a leg that fails fails the items it still owed
//     and no others; once no item can complete any more the remaining legs
//     are cancelled, and each failed item names the leg whose error is its
//     own, never a sibling's cancellation fallout.
//
// Every refinement draw is addressed by (Seed, source, column pair) and
// placement partitions the sources, so answers are a function of
// (database, params) alone — the same at every P, placement and replica.
// Per-leg Stats are summed (durations become aggregate across-shard time,
// like the Workers > 1 refinement sub-stages), except Stats.Answers, which
// is the number of answers returned. opts.ItemTimeout is one window per
// pipeline run: a matrix item's inference gets one, and each leg's run of
// the item gets its own.

// Leg runs every item of one batch on one shard: graph items whose params
// carry the item's resolved plan and, for a K > 0 item, the item's top-k
// sink. items is the leg's own copy. The leg reports each item through
// opts.OnResult as the item retires on the shard (a replay of an item
// already reported is ignored), and returns only after its last OnResult
// call. An error fails the leg: the items it has not reported fail with it.
type Leg func(ctx context.Context, shard int, items []core.BatchItem, opts core.BatchOptions) error

// Scatter is the scatter-gather both coordinators embed: their query entry
// points are its methods.
type Scatter struct {
	// Shards is the number of legs of every scatter: one per (global)
	// shard.
	Shards int
	// Legs returns the leg of one batch, given the batch's live items as
	// every leg receives them. ctx ends when the batch returns.
	Legs func(ctx context.Context, items []core.BatchItem) Leg
}

// QueryBatch answers a batch of queries scatter-gather. It returns one
// result per item in item order; opts.OnResult streams each item as its
// merge completes (possibly out of item order, one call at a time). Item
// errors are per item — a failed item never fails its siblings — and the
// batch context is the only batch-wide abort. The caller's items are not
// modified.
func (s Scatter) QueryBatch(ctx context.Context, items []core.BatchItem, opts core.BatchOptions) ([]core.BatchResult, core.BatchStats) {
	results := make([]core.BatchResult, len(items))
	bst := core.BatchStats{Queries: len(items)}
	var finishMu sync.Mutex // bst.Errors and the caller's callback
	finish := func(i int, res core.BatchResult) {
		results[i] = res
		finishMu.Lock()
		defer finishMu.Unlock()
		if res.Err != nil {
			bst.Errors++
		}
		if opts.OnResult != nil {
			opts.OnResult(i, res)
		}
	}

	// Prologue: plans, one inference per matrix item, and the sinks. The
	// scatter keeps graphs and resolved params in its own copy.
	start := time.Now()
	items = slices.Clone(items)
	planErrs := core.ResolveBatchPlans(items)
	var (
		live     []int        // live position -> items index
		base     []core.Stats // the item's stats before the legs' are added
		legItems []core.BatchItem
	)
	for i := range items {
		it := core.BatchItem{Params: items[i].Params}
		var st core.Stats
		err := planErrs[i]
		if err == nil {
			it.Graph, st, err = graphOf(ctx, items[i], opts.ItemTimeout)
		}
		if err != nil {
			finish(i, core.BatchResult{Err: err})
			continue
		}
		st.Plan = it.Params.Plan
		if items[i].K > 0 {
			it.Params.Sink = core.NewTopKSink(items[i].K, it.Params.Alpha)
		}
		live = append(live, i)
		base = append(base, st)
		legItems = append(legItems, it)
	}
	if len(live) == 0 {
		return results, bst
	}
	if err := ctx.Err(); err != nil {
		for _, i := range live {
			finish(i, core.BatchResult{Err: err})
		}
		return results, bst
	}

	P := s.Shards
	scatterCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	leg := s.Legs(scatterCtx, legItems)

	// got[g][pos] is leg g's first result for live item pos; seen[g][pos]
	// latches so that a replay can never re-trigger or re-count.
	got := make([][]core.BatchResult, P)
	seen := make([][]atomic.Bool, P)
	for g := range got {
		got[g] = make([]core.BatchResult, len(live))
		seen[g] = make([]atomic.Bool, len(live))
	}
	remaining := make([]atomic.Int32, len(live))
	for pos := range remaining {
		remaining[pos].Store(int32(P))
	}

	// An item settles when its merge fires or when a leg that still owed
	// it fails. Once a leg has failed and every item has settled, nothing
	// in flight can change a result, so the remaining legs are cancelled
	// instead of run out. (Without a failure the legs end on their own;
	// cancelling them would only tear a remote leg's connection down.)
	var settleMu sync.Mutex
	settled := make([]bool, len(live))
	open, legFailed := len(live), false
	settle := func(pos int, failed bool) {
		settleMu.Lock()
		defer settleMu.Unlock()
		legFailed = legFailed || failed
		if !settled[pos] {
			settled[pos] = true
			open--
		}
		if open == 0 && legFailed {
			cancel()
		}
	}

	scatterStart := time.Now()
	mergeItem := func(pos int) {
		st := base[pos]
		perShard := make([]core.Stats, 0, P)
		runs := make([][]core.Answer, 0, P)
		for g := 0; g < P; g++ {
			r := got[g][pos]
			if r.Err != nil {
				finish(live[pos], core.BatchResult{Err: fmt.Errorf("shard %d: %w", g, r.Err)})
				return
			}
			perShard = append(perShard, r.Stats)
			runs = append(runs, r.Answers)
		}
		core.MergeScatterStats(&st, perShard)
		produced := st.Answers
		tr := legItems[pos].Params.Trace
		tr.Record(obs.StageScatter, scatterStart, time.Since(scatterStart), P, produced)
		mStart := time.Now()
		// Placement partitions the sources and each run is Source-ascending,
		// so the k-way merge is the engine's answer order; a K > 0 item
		// keeps the best K of it. A shard's members of the global top K are
		// within its own run (a remote leg's local top K included).
		merged := core.MergeAnswerRuns(runs)
		if k := items[live[pos]].K; k > 0 {
			core.RankAnswers(merged)
			merged = merged[:min(k, len(merged))]
		}
		tr.Record(obs.StageMerge, mStart, time.Since(mStart), produced, len(merged))
		st.Answers = len(merged)
		st.Total = time.Since(start)
		finish(live[pos], core.BatchResult{Answers: merged, Stats: st})
	}

	legErrs := make([]error, P)
	runLeg := func(g int) {
		emit := func(pos int, res core.BatchResult) {
			if pos < 0 || pos >= len(live) || seen[g][pos].Swap(true) {
				return
			}
			got[g][pos] = res
			if remaining[pos].Add(-1) == 0 {
				mergeItem(pos)
				settle(pos, false)
			}
		}
		legOpts := core.BatchOptions{ItemTimeout: opts.ItemTimeout, OnResult: emit}
		if legErrs[g] = leg(scatterCtx, g, slices.Clone(legItems), legOpts); legErrs[g] != nil {
			// The leg has returned: seen[g] is final.
			for pos := range live {
				if !seen[g][pos].Load() {
					settle(pos, true)
				}
			}
		}
	}
	// Every leg runs, whatever the scatter context does, on a pool of P
	// workers (P = 1 inline): each worker claims one leg at a time, so no
	// leg waits for a worker while others block. A panic in a leg re-panics
	// here. The fan-out fails only through fn or its own context, so its
	// error is always nil.
	_ = exec.New(context.Background(), nil, P).ForEach(P, func(g int) error {
		runLeg(g)
		return nil
	})

	// Items a failed leg still owed fail explicitly (every merge that will
	// happen has happened: the legs are joined and merges run inside their
	// callbacks). Report the root cause, not the fallout: legs cancelled by
	// settle surface context.Canceled, so prefer an owing leg whose error
	// is its own.
	for pos := range live {
		if remaining[pos].Load() == 0 {
			continue
		}
		owing, cause := -1, error(nil)
		for g, err := range legErrs {
			if seen[g][pos].Load() {
				continue
			}
			if err == nil {
				err = errNoItemResult
			}
			if cause == nil || (errors.Is(cause, context.Canceled) && !errors.Is(err, context.Canceled)) {
				owing, cause = g, err
			}
		}
		finish(live[pos], core.BatchResult{Err: fmt.Errorf("shard: scatter leg %d: %w", owing, cause)})
	}
	return results, bst
}

// errNoItemResult fails an item whose leg returned cleanly without
// reporting it.
var errNoItemResult = errors.New("leg ended without the item's result")

// graphOf returns an item's query graph — inferred here, once, for a
// matrix item — and the stats of that stage.
func graphOf(ctx context.Context, it core.BatchItem, timeout time.Duration) (*grn.Graph, core.Stats, error) {
	switch {
	case it.Graph != nil:
		return it.Graph, core.Stats{QueryVertices: it.Graph.NumVertices(), QueryEdges: it.Graph.NumEdges()}, nil
	case it.Matrix == nil:
		return nil, core.Stats{}, core.ErrNoBatchQuery
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return core.InferQuery(ctx, it.Matrix, it.Params)
}

// QueryContext answers an IM-GRN query scatter-gather: it infers the query
// GRN from mq once and fans the match out over the shards. Answers are
// sorted by source ID.
func (s Scatter) QueryContext(ctx context.Context, mq *gene.Matrix, params core.Params) ([]core.Answer, core.Stats, error) {
	return s.queryItem(ctx, core.BatchItem{Matrix: mq, Params: params})
}

// QueryGraphContext answers a query for an already-inferred query GRN
// scatter-gather.
func (s Scatter) QueryGraphContext(ctx context.Context, q *grn.Graph, params core.Params) ([]core.Answer, core.Stats, error) {
	return s.queryItem(ctx, core.BatchItem{Graph: q, Params: params})
}

// QueryTopKContext answers a query keeping only the k best matches by
// appearance probability (ties toward smaller source IDs). With k > 0 the
// shards refine against the item's top-k sink and terminate early on the
// cross-shard Markov bound; the returned top-k set is deterministic,
// though which candidates the rising floor prunes — and so the pruning
// and cache counters — may vary run to run. k <= 0 ranks all matches.
func (s Scatter) QueryTopKContext(ctx context.Context, mq *gene.Matrix, params core.Params, k int) ([]core.Answer, core.Stats, error) {
	answers, st, err := s.queryItem(ctx, core.BatchItem{Matrix: mq, Params: params, K: k})
	if err == nil && k <= 0 {
		mark := params.Trace.Start(obs.StageTopK)
		core.RankAnswers(answers)
		mark.End(len(answers), len(answers))
	}
	return answers, st, err
}

// queryItem runs one query as a one-item batch.
func (s Scatter) queryItem(ctx context.Context, item core.BatchItem) ([]core.Answer, core.Stats, error) {
	results, _ := s.QueryBatch(ctx, []core.BatchItem{item}, core.BatchOptions{})
	return results[0].Answers, results[0].Stats, results[0].Err
}
