package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/imgrn/imgrn/internal/core"
)

// Distributed batch execution: the remote analogue of the in-process
// batch scatter (DESIGN.md §14). The coordinator resolves every item's
// plan once, then ships the WHOLE batch to each global shard in a single
// BatchExecRequest — one RPC per shard per batch; the structure is that
// of the in-process scatter, only the transport changed. Matrix items
// are inferred on each shard server at the base seed (inference reads
// only the query matrix, so every server derives the identical graph),
// and each server rewrites the per-item seed for its GLOBAL shard exactly
// like the local scatter.
//
// Top-k items use per-(item, shard) local sinks merged here, not the
// networked floor push: batch items retire too quickly for the push
// cadence to pay for its round trips (EXPERIMENTS.md). The merged top-k
// set is still deterministic — a shard's members of an item's global
// top-k are necessarily within that shard's local top-k.
//
// A per-item countdown merges each item as its last shard's FIRST frame
// lands: hedged or retried legs replay their item frames wholesale, so
// later duplicates of a (item, shard) frame are dropped, never merged
// twice.

// QueryBatch answers a batch of queries scatter-gather over the cluster.
// One result per item, in item order; opts.OnResult streams each item as
// its cross-shard merge completes (possibly out of item order).
// Item errors stay per item; a scatter leg failing on every replica
// fails only the items that leg still owed.
func (c *Coordinator) QueryBatch(ctx context.Context, items []core.BatchItem, opts core.BatchOptions) ([]core.BatchResult, core.BatchStats) {
	results := make([]core.BatchResult, len(items))
	bst := core.BatchStats{Queries: len(items)}
	if len(items) == 0 {
		return results, bst
	}
	var bstMu sync.Mutex
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

	// Coordinator-side prologue: per-item validation and plan resolution,
	// then the wire envelope. Items that fail here never ship.
	start := time.Now()
	planErrs := core.ResolveBatchPlans(items)
	solo := c.topo.NumShards == 1
	var wire []BatchExecItem
	var live []int // wire index -> items index
	for i := range items {
		if planErrs[i] != nil {
			finish(i, core.BatchResult{Err: planErrs[i]})
			continue
		}
		w := BatchExecItem{K: items[i].K, Params: ParamsToWire(items[i].Params)}
		switch {
		case items[i].Graph != nil:
			w.Kind = KindGraph
			w.Genes, w.Edges = graphToWire(items[i].Graph)
		case items[i].Matrix != nil:
			w.Kind = KindMatrix
			w.Genes, w.Columns = matrixToWire(items[i].Matrix)
		default:
			finish(i, core.BatchResult{Err: core.ErrNoBatchQuery})
			continue
		}
		if items[i].Params.Plan != nil {
			encoded, err := items[i].Params.Plan.EncodeWire()
			if err != nil {
				finish(i, core.BatchResult{Err: err})
				continue
			}
			w.Plan = encoded
		}
		live = append(live, i)
		wire = append(wire, w)
	}
	if len(wire) == 0 {
		return results, bst
	}

	req := BatchExecRequest{
		QueryID:       c.nextQueryID(),
		NumShards:     c.topo.NumShards,
		Solo:          solo,
		ItemTimeoutMs: opts.ItemTimeout.Milliseconds(),
		Items:         wire,
	}

	c.met.scatter()
	P := c.topo.NumShards
	scatterCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// frames[g][pos] is the FIRST frame shard g produced for wire item
	// pos; merged[pos] latches so a duplicate frame (hedge/retry replay)
	// can never re-trigger or re-count.
	frames := make([][]*BatchItemFrame, P)
	seen := make([][]atomic.Bool, P)
	for g := 0; g < P; g++ {
		frames[g] = make([]*BatchItemFrame, len(wire))
		seen[g] = make([]atomic.Bool, len(wire))
	}
	remaining := make([]atomic.Int32, len(wire))
	for pos := range remaining {
		remaining[pos].Store(int32(P))
	}

	mergeItem := func(pos int) {
		orig := live[pos]
		if solo {
			// The single leg ran the unsharded batch path: its frame is the
			// item's final result (answers ranked/trimmed server-side by K).
			fr := frames[0][pos]
			if fr.Error != "" {
				finish(orig, core.BatchResult{Err: fmt.Errorf("cluster: batch item %d: %s", orig, fr.Error)})
				return
			}
			st := fr.Stats.Stats()
			st.Plan = items[orig].Params.Plan
			finish(orig, core.BatchResult{Answers: AnswersFromWire(fr.Answers), Stats: st})
			return
		}
		var st core.Stats
		perShard := make([]core.Stats, 0, P)
		runs := make([][]core.Answer, 0, P)
		for g := 0; g < P; g++ {
			fr := frames[g][pos]
			if fr.Error != "" {
				finish(orig, core.BatchResult{Err: fmt.Errorf("shard %d: %s", g, fr.Error)})
				return
			}
			perShard = append(perShard, fr.Stats.Stats())
			runs = append(runs, AnswersFromWire(fr.Answers))
		}
		core.MergeScatterStats(&st, perShard)
		if inf := frames[0][pos].Infer; inf != nil {
			ist := inf.Stats()
			st.InferQuery = ist.InferQuery
			st.QueryVertices = ist.QueryVertices
			st.QueryEdges = ist.QueryEdges
		} else {
			st.QueryVertices = frames[0][pos].Stats.QueryVertices
			st.QueryEdges = frames[0][pos].Stats.QueryEdges
		}
		var merged []core.Answer
		if k := items[orig].K; k > 0 {
			sink := core.NewTopKSink(k, items[orig].Params.Alpha)
			for _, run := range runs {
				for _, a := range run {
					sink.Offer(a)
				}
			}
			merged = sink.Results()
		} else {
			merged = core.MergeAnswerRuns(runs)
		}
		st.Answers = len(merged)
		st.Plan = items[orig].Params.Plan
		st.Total = time.Since(start)
		finish(orig, core.BatchResult{Answers: merged, Stats: st})
	}

	legErrs := make([]error, P)
	var wg sync.WaitGroup
	for g := 0; g < P; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			onItem := func(fr BatchItemFrame) {
				if fr.Index < 0 || fr.Index >= len(wire) {
					return
				}
				if seen[g][fr.Index].Swap(true) {
					return // hedge/retry replay of an already-counted frame
				}
				frCopy := fr
				frames[g][fr.Index] = &frCopy
				if remaining[fr.Index].Add(-1) == 0 {
					mergeItem(fr.Index)
				}
			}
			legErrs[g] = c.execBatchShard(scatterCtx, g, req, onItem)
		}(g)
	}
	wg.Wait()

	// Items a failed leg still owed fail explicitly (all merges that will
	// happen have happened: the legs are joined and merges run inside
	// their frame callbacks).
	var legErr error
	for g, err := range legErrs {
		if err != nil {
			c.met.partialFailure()
			legErr = fmt.Errorf("cluster: batch scatter leg %d: %w", g, err)
			break
		}
	}
	for pos := range remaining {
		if remaining[pos].Load() > 0 {
			e := legErr
			if e == nil {
				e = ctx.Err()
			}
			if e == nil {
				e = context.Canceled
			}
			finish(live[pos], core.BatchResult{Err: e})
		}
	}
	return results, bst
}

// execBatchShard is execShard's batch twin: hedged replicated execution
// of one batch leg. Frame replay across attempts is handled by the
// caller's first-wins dedup.
func (c *Coordinator) execBatchShard(ctx context.Context, g int, req BatchExecRequest, onItem func(BatchItemFrame)) error {
	req.Shard = g
	urls := c.replicaOrder(g)
	if len(urls) == 0 {
		return fmt.Errorf("%w: shard %d has no replicas", ErrShardUnavailable, g)
	}
	attemptCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		err     error
		attempt int
	}
	ch := make(chan result, len(urls))
	launched := 0
	launch := func() {
		attempt := launched
		url := urls[attempt]
		launched++
		legReq := req
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			ch <- result{c.client.ExecBatch(attemptCtx, url, &legReq, onItem), attempt}
		}()
	}
	launch()

	var hedge <-chan time.Time
	if c.opts.HedgeAfter > 0 {
		t := time.NewTimer(c.opts.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	pending := 1
	var errs []error
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-hedge:
			hedge = nil
			if launched < len(urls) {
				c.met.hedge()
				launch()
				pending++
			}
		case r := <-ch:
			pending--
			if r.err == nil {
				if r.attempt > 0 {
					c.met.hedgeWin()
				}
				return nil
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			errs = append(errs, fmt.Errorf("replica %s: %w", urls[r.attempt], r.err))
			if launched < len(urls) {
				launch()
				pending++
			} else if pending == 0 {
				return joinShardErr(g, errs)
			}
		}
	}
}

func joinShardErr(g int, errs []error) error {
	msg := ""
	for i, e := range errs {
		if i > 0 {
			msg += "; "
		}
		msg += e.Error()
	}
	return fmt.Errorf("%w: shard %d: %s", ErrShardUnavailable, g, msg)
}
