package shard_test

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/shard"
)

// The scatter with fake legs. A failed leg's root-cause attribution and
// the cancellation of the remaining legs are pinned over HTTP by
// TestClusterFailedLegCancelsAndNamesRootCause (internal/server).

// fakeItems returns n analytic graph items.
func fakeItems(n int) []core.BatchItem {
	q := grn.NewGraph([]gene.ID{1, 2})
	q.SetEdge(0, 1, 0.9)
	items := make([]core.BatchItem, n)
	for i := range items {
		items[i] = core.BatchItem{Graph: q, Params: core.Params{Gamma: 0.5, Alpha: 0.4, Analytic: true}}
	}
	return items
}

// fakeScatter runs every batch on shards legs of leg.
func fakeScatter(shards int, leg shard.Leg) shard.Scatter {
	return shard.Scatter{Shards: shards, Legs: func(context.Context, []core.BatchItem) shard.Leg { return leg }}
}

// TestScatterMergesReplayOnce: a leg that reports an item twice — a
// hedged or retried remote leg replaying its frames, before or after the
// item merged — is merged once, with its first result, and the item is
// delivered once.
func TestScatterMergesReplayOnce(t *testing.T) {
	run := func(source int, draws int) core.BatchResult {
		return core.BatchResult{Answers: []core.Answer{{Source: source, Prob: 0.5}}, Stats: core.Stats{Draws: draws, Answers: 1}}
	}
	leg0 := make(chan struct{})
	s := fakeScatter(2, func(_ context.Context, g int, _ []core.BatchItem, opts core.BatchOptions) error {
		if g == 0 {
			opts.OnResult(0, run(10, 1))
			opts.OnResult(0, run(11, 100)) // replay with a different payload: ignored
			close(leg0)
			return nil
		}
		// Leg 1 reports once leg 0 has, so its replay lands after the merge.
		<-leg0
		opts.OnResult(0, run(20, 2))
		opts.OnResult(0, run(21, 200))
		opts.OnResult(7, run(22, 300)) // no such item
		return nil
	})
	var delivered atomic.Int32
	res, bst := s.QueryBatch(context.Background(), fakeItems(1), core.BatchOptions{
		OnResult: func(int, core.BatchResult) { delivered.Add(1) },
	})
	if res[0].Err != nil || bst.Errors != 0 {
		t.Fatalf("err %v, batch errors %d", res[0].Err, bst.Errors)
	}
	if want := []core.Answer{{Source: 10, Prob: 0.5}, {Source: 20, Prob: 0.5}}; !reflect.DeepEqual(res[0].Answers, want) {
		t.Errorf("answers %+v, want %+v", res[0].Answers, want)
	}
	if res[0].Stats.Draws != 3 || res[0].Stats.Answers != 2 {
		t.Errorf("draws %d answers %d, want 3 and 2", res[0].Stats.Draws, res[0].Stats.Answers)
	}
	if n := delivered.Load(); n != 1 {
		t.Errorf("item delivered %d times, want once", n)
	}
}

// TestScatterCancelledBeforeLegs: a batch context cancelled before the
// legs run fails every live item with ctx.Err() and runs no leg; an
// invalid item keeps its own error.
func TestScatterCancelledBeforeLegs(t *testing.T) {
	var legs atomic.Int32
	s := shard.Scatter{Shards: 3, Legs: func(context.Context, []core.BatchItem) shard.Leg {
		legs.Add(1)
		return func(context.Context, int, []core.BatchItem, core.BatchOptions) error {
			legs.Add(1)
			return nil
		}
	}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := append(fakeItems(2), core.BatchItem{Params: core.Params{Gamma: 0.5, Alpha: 0.4}})
	res, bst := s.QueryBatch(ctx, items, core.BatchOptions{})
	for i := 0; i < 2; i++ {
		if res[i].Err != context.Canceled {
			t.Errorf("item %d: err %v, want context.Canceled", i, res[i].Err)
		}
	}
	if !errors.Is(res[2].Err, core.ErrNoBatchQuery) {
		t.Errorf("empty item: err %v, want ErrNoBatchQuery", res[2].Err)
	}
	if bst.Errors != 3 || legs.Load() != 0 {
		t.Errorf("batch errors %d, legs built or run %d times; want 3 and 0", bst.Errors, legs.Load())
	}
}
