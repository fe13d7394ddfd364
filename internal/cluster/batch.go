package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/imgrn/imgrn/internal/core"
)

// Distributed execution: the remote analogue of the in-process scatter
// (DESIGN.md §10, §14, §15), and the one scatter-gather of this package —
// QueryBatch fans a request out over the global shards, its mergeItem
// merges per-shard runs, execBatchShard is the one hedged-leg loop. A solo
// query is a batch of one (coordinator.go). The coordinator resolves every
// item's plan once, then ships the WHOLE request to each global shard in
// a single BatchExecRequest — one RPC per shard per request; the
// structure is that of the in-process scatter, only the transport
// changed. Matrix items are inferred on each shard server at the base
// seed (inference reads only the query matrix, so every server derives
// the identical graph), and each server rewrites the per-item seed for
// its GLOBAL shard exactly like the local scatter. With one global shard
// the envelope is marked Solo and the single server runs every item's
// params untouched on the unsharded sequential path, exactly like the
// in-process coordinator at P=1.
//
// Top-k items run against per-(item, shard) local sinks on the servers
// and are merged here by offering every shard's local top-k into a fresh
// bounded sink — correct and deterministic because a shard's members of
// an item's global top-k are necessarily within that shard's local
// top-k. Floor propagation is per item: accept frames feed the item's
// floorTracker and pushFloors sends a risen floor to every server, so
// remote shards early-terminate like in-process ones.
//
// A per-item countdown merges each item as its last shard's FIRST frame
// lands: hedged or retried legs replay their item frames wholesale, so
// later duplicates of a (item, shard) frame are dropped, never merged
// twice. K-less items concatenate the source-ascending per-shard runs
// (placement partitions the sources, so a k-way merge of shard-ordered
// runs is the engine's answer order).
//
// A leg that fails on every replica fails the items it still owed and no
// others; once no item can complete any more the remaining legs are
// cancelled (for a solo query: on the first failed leg), and every failed
// item reports the leg whose error is its own, never a sibling's
// cancellation fallout.

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

	// One floorTracker per K>0 item, fed by the legs' accept frames and
	// drained by one pushFloors loop. P=1 has no other shard to tell.
	var onAccept func(AcceptFrame)
	if !solo && c.opts.FloorEvery > 0 {
		var trackers []*floorTracker
		for pos, w := range wire {
			if w.K > 0 {
				if trackers == nil {
					trackers = make([]*floorTracker, len(wire))
				}
				trackers[pos] = newFloorTracker(w.K, w.Params.Alpha)
			}
		}
		if trackers != nil {
			onAccept = func(fr AcceptFrame) {
				if fr.Item >= 0 && fr.Item < len(trackers) && trackers[fr.Item] != nil {
					trackers[fr.Item].accept(fr)
				}
			}
			stop := make(chan struct{})
			defer close(stop)
			c.wg.Add(1)
			go c.pushFloors(scatterCtx, req.QueryID, trackers, stop)
		}
	}

	// frames[g][pos] is the FIRST frame shard g produced for wire item
	// pos; seen[g][pos] latches so a duplicate frame (hedge/retry replay)
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

	// An item settles when its merge fires or when a leg that still owed
	// it fails. Once a leg has failed and every item has settled, nothing
	// in flight can change a result, so the remaining legs are cancelled
	// instead of run out. (Without a failure the legs end on their own
	// terminal frames; cancelling them would only tear connections down.)
	var settleMu sync.Mutex
	settled := make([]bool, len(wire))
	open, legFailed := len(wire), false
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
		// Query-graph inference ran identically on every shard server (base
		// seed, query matrix only); report shard 0's run once, like the
		// in-process inferOnce.
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
					settle(fr.Index, false)
				}
			}
			if legErrs[g] = c.execBatchShard(scatterCtx, g, req, onAccept, onItem); legErrs[g] != nil {
				// The leg's attempts have all returned: seen[g] is final.
				for pos := range wire {
					if !seen[g][pos].Load() {
						settle(pos, true)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Items a failed leg still owed fail explicitly (all merges that will
	// happen have happened: the legs are joined and merges run inside
	// their frame callbacks). Report the root cause, not the fallout: legs
	// cancelled by settle surface context.Canceled, so prefer an owing leg
	// whose error is its own.
	for _, err := range legErrs {
		if errors.Is(err, ErrShardUnavailable) {
			c.met.partialFailure()
			break
		}
	}
	for pos := range remaining {
		if remaining[pos].Load() == 0 {
			continue
		}
		leg, legErr := -1, error(nil)
		for g, err := range legErrs {
			if seen[g][pos].Load() {
				continue
			}
			if err == nil {
				err = errNoItemFrame
			}
			if legErr == nil || (errors.Is(legErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
				leg, legErr = g, err
			}
		}
		finish(live[pos], core.BatchResult{Err: fmt.Errorf("cluster: scatter leg %d: %w", leg, legErr)})
	}
	return results, bst
}

// errNoItemFrame fails an item whose leg reached its terminal frame
// without ever sending the item's own.
var errNoItemFrame = errors.New("cluster: leg ended without the item's frame")

// execBatchShard runs one scatter leg — global shard g of req — with
// hedged replicated reads: the primary-ordered healthy replicas are tried
// with an attempt launched immediately, another after each HedgeAfter of
// silence, and an immediate failover on error; the first success wins and
// cancels the rest. It returns only after every attempt it launched has
// returned, so no frame callback runs past it. Frame replay across
// attempts is the caller's to dedup (first item frame wins, accepts by
// source). Every replica failing yields ErrShardUnavailable.
func (c *Coordinator) execBatchShard(ctx context.Context, g int, req BatchExecRequest, onAccept func(AcceptFrame), onItem func(BatchItemFrame)) error {
	req.Shard = g
	urls := c.replicaOrder(g)
	if len(urls) == 0 {
		return fmt.Errorf("%w: shard %d has no replicas", ErrShardUnavailable, g)
	}
	var attempts sync.WaitGroup
	defer attempts.Wait()
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
		legReq := req // per-attempt copy: ExecBatch stamps Proto on its argument
		attempts.Add(1)
		go func() {
			defer attempts.Done()
			ch <- result{c.client.ExecBatch(attemptCtx, url, &legReq, onAccept, onItem), attempt}
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
				return fmt.Errorf("%w: shard %d: %w", ErrShardUnavailable, g, errors.Join(errs...))
			}
		}
	}
}
