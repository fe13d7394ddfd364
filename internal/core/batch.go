package core

import (
	"context"
	"errors"
	"time"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/obs"
	"github.com/imgrn/imgrn/internal/plan"
)

// Multi-query batch execution (DESIGN.md §14).
//
// QueryBatch answers B queries over one index in one call: plans resolve
// once per distinct (ε, δ, samples, stage-set) request group, then every
// item runs the ordinary Figure 4 pipeline — a private Processor's
// QueryContext or QueryGraphContext — strictly in item order. There is
// one descent of the index in this package, and a batch item takes it
// exactly as a solo query does.
//
// Determinism contract: batch results are byte-identical to running the
// same items sequentially against the same engine, and so is every
// counter of an item's Stats, page I/O included. Query inference draws
// from per-column streams, refinement from per-edge streams, and item
// order makes a shared edge-probability cache warm in exactly the
// sequential order.

// BatchItem is one query of a batch: a query matrix (or a pre-inferred
// query graph) plus its own full parameter set.
type BatchItem struct {
	// Matrix is the query's feature matrix; ignored when Graph is set.
	Matrix *gene.Matrix
	// Graph is an already-inferred query GRN (the sharded scatter path
	// and /query-graph requests supply one); when set, the inference
	// stage is skipped.
	Graph *grn.Graph
	// Params are the item's query parameters. Items may differ in every
	// field.
	Params Params
	// K keeps only the K best answers by appearance probability (ties
	// toward smaller source IDs), exactly like Engine.QueryTopK. K <= 0
	// returns all matches sorted by source.
	K int
}

// BatchResult is one item's outcome.
type BatchResult struct {
	Answers []Answer
	Stats   Stats
	// Err is the item's error (validation, cancellation, per-item
	// timeout). Items fail independently: one bad or slow item never
	// fails its siblings.
	Err error
}

// BatchOptions tunes one QueryBatch call.
type BatchOptions struct {
	// ItemTimeout bounds each item with one window of its own — the
	// item's whole pipeline run, inference through refinement — so a slow
	// item fails alone and cannot starve the rest of the batch. 0 disables
	// the per-item bound; the batch context still applies throughout.
	ItemTimeout time.Duration
	// OnResult, when non-nil, is called once per item as the item
	// completes (successfully or not), before QueryBatch returns — the
	// streaming hook behind the server's NDJSON batch endpoint.
	// QueryBatch itself invokes it in item order from the calling
	// goroutine; the sharded coordinator may invoke it out of order.
	OnResult func(i int, res BatchResult)
}

// BatchStats aggregates batch-level execution counters (per-item costs
// live in each BatchResult.Stats).
type BatchStats struct {
	// Queries is the number of items submitted, Errors how many failed.
	Queries int
	Errors  int
}

// ResolveBatchPlans validates every item and resolves its execution plan
// in place, sharing one resolved *plan.Plan across all items with the
// same plan request — one plan.Resolve per distinct (ε, δ, samples,
// stage-set) group in the batch. Items that already carry a pinned plan
// keep it. The returned slice holds one error per item (nil for valid
// items); callers must skip errored items. Idempotent.
func ResolveBatchPlans(items []BatchItem) []error {
	errs := make([]error, len(items))
	groups := make(map[plan.Request]*plan.Plan)
	for i := range items {
		p := &items[i].Params
		if err := p.Validate(); err != nil {
			errs[i] = err
			continue
		}
		if p.Plan == nil {
			req := p.planRequest()
			pl, ok := groups[req]
			if !ok {
				var err error
				pl, err = plan.Resolve(req)
				if err != nil {
					errs[i] = err
					continue
				}
				groups[req] = pl
			}
			p.Plan = pl
		}
		resolved, err := p.ResolvePlan()
		if err != nil {
			errs[i] = err
			continue
		}
		*p = resolved
	}
	return errs
}

// QueryBatch runs a batch of queries over idx: shared plan resolution,
// then one solo pipeline run per item, in item order. It returns one
// BatchResult per item, in item order; opts.OnResult streams them as they
// complete. Item errors are reported per item, never as a batch failure —
// the only batch-wide abort is ctx cancellation, which fails every item
// still to run.
func QueryBatch(ctx context.Context, idx *index.Index, items []BatchItem, opts BatchOptions) ([]BatchResult, BatchStats) {
	results := make([]BatchResult, len(items))
	bst := BatchStats{Queries: len(items)}
	planErrs := ResolveBatchPlans(items)
	for i := range items {
		res := &results[i]
		if res.Err = planErrs[i]; res.Err == nil {
			res.Answers, res.Stats, res.Err = runBatchItem(ctx, idx, &items[i], opts.ItemTimeout)
		}
		if res.Err != nil {
			bst.Errors++
		}
		if opts.OnResult != nil {
			opts.OnResult(i, *res)
		}
	}
	return results, bst
}

// runBatchItem answers one item exactly as a solo query would — a fresh
// processor, one execution context, one timeout window — and then applies
// the item's top-k trim.
func runBatchItem(ctx context.Context, idx *index.Index, it *BatchItem, timeout time.Duration) ([]Answer, Stats, error) {
	proc, err := NewProcessor(idx, it.Params)
	if err != nil {
		return nil, Stats{}, err
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var answers []Answer
	var st Stats
	switch {
	case it.Graph != nil:
		answers, st, err = proc.QueryGraphContext(ctx, it.Graph)
	case it.Matrix != nil:
		answers, st, err = proc.QueryContext(ctx, it.Matrix)
	default:
		err = ErrNoBatchQuery
	}
	if err != nil {
		return nil, st, err
	}
	// With a sink the sharded scatter owns the trim (the sink is the
	// cross-shard top-k); otherwise rank and cut here, like QueryTopK.
	if k := it.K; k > 0 && proc.params.Sink == nil {
		mark := proc.params.Trace.Start(obs.StageTopK)
		in := len(answers)
		RankAnswers(answers)
		if len(answers) > k {
			answers = answers[:k]
		}
		mark.End(in, len(answers))
		st.Answers = len(answers)
	}
	return answers, st, nil
}

// ErrNoBatchQuery rejects batch items carrying neither a query matrix
// nor a pre-inferred query graph.
var ErrNoBatchQuery = errors.New("core: batch item has no query matrix or graph")
