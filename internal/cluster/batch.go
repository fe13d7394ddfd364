package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/shard"
)

// The remote leg (DESIGN.md §10, §15). The Coordinator answers queries
// through its embedded shard.Scatter — the one scatter-gather of the
// in-process coordinator, with its plan resolution, one coordinator-side
// inference per matrix item, per-item countdown, merge and failed-leg
// handling — and supplies only the leg: the batch ships as ONE envelope
// of graph items to every global shard (one RPC per shard per request),
// and execBatchShard runs each leg hedged over the shard's replicas.
// Each shard server runs the caller's params untouched, exactly like the
// in-process leg — one global shard included.
//
// Top-k items run against per-(item, shard) local sinks on the servers,
// which return their local top-k; the scatter's merge keeps the best k,
// correct because a shard's members of an item's global top-k are within
// its local top-k. The servers' accept frames feed the item's sink in the
// scatter, and pushFloors sends a risen floor to every server, so remote
// shards early-terminate like in-process ones. With one global shard
// there is no other shard to tell, and no floor is pushed.

// legs is the Coordinator's shard.Scatter.Legs: it builds one batch's
// envelope and, when some item keeps a top-k, starts the batch's floor
// pushes (they stop when ctx ends, with the batch).
func (c *Coordinator) legs(ctx context.Context, items []core.BatchItem) shard.Leg {
	req := BatchExecRequest{
		QueryID:   c.nextQueryID(),
		NumShards: c.topo.NumShards,
		Items:     make([]BatchExecItem, len(items)),
	}
	sinks := make([]*core.TopKSink, len(items))
	topK := false
	for pos, it := range items {
		plan, err := it.Params.Plan.EncodeWire()
		if err != nil {
			return func(context.Context, int, []core.BatchItem, core.BatchOptions) error { return err }
		}
		w := &req.Items[pos]
		w.Genes, w.Edges = graphToWire(it.Graph)
		w.Params, w.Plan = ParamsToWire(it.Params), plan
		if sink := it.Params.Sink; sink != nil {
			w.K, sinks[pos], topK = sink.K(), sink, true
		}
	}
	c.met.scatter()
	if topK && c.topo.NumShards > 1 && c.opts.FloorEvery > 0 {
		c.wg.Add(1)
		go c.pushFloors(ctx, req.QueryID, sinks)
	}
	onAccept := func(fr AcceptFrame) {
		if fr.Item >= 0 && fr.Item < len(sinks) && sinks[fr.Item] != nil {
			sinks[fr.Item].Offer(core.Answer{Source: fr.Source, Prob: fr.Prob})
		}
	}
	var partial atomic.Bool // imgrn_cluster_partial_failures_total counts a batch once
	return func(ctx context.Context, g int, _ []core.BatchItem, opts core.BatchOptions) error {
		legReq := req
		legReq.ItemTimeoutMs = opts.ItemTimeout.Milliseconds()
		err := c.execBatchShard(ctx, g, legReq, onAccept, func(fr BatchItemFrame) {
			if fr.Error != "" {
				opts.OnResult(fr.Index, core.BatchResult{Err: errors.New(fr.Error)})
				return
			}
			opts.OnResult(fr.Index, core.BatchResult{Answers: AnswersFromWire(fr.Answers), Stats: fr.Stats.Stats()})
		})
		if errors.Is(err, ErrShardUnavailable) && !partial.Swap(true) {
			c.met.partialFailure()
		}
		return err
	}
}

// execBatchShard runs one scatter leg — global shard g of req — with
// hedged replicated reads: the primary-ordered healthy replicas are tried
// with an attempt launched immediately, another after each HedgeAfter of
// silence, and an immediate failover on error; the first success wins and
// cancels the rest. It returns only after every attempt it launched has
// returned, so no frame callback runs past it. Frame replay across
// attempts is the scatter's to dedup (first item result wins; the sink
// ignores a repeated accept). Every replica failing yields
// ErrShardUnavailable.
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
