package core_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/synth"
)

// extractMixedQueries pulls a mixed-width query workload (alternating 2-
// and 5-gene queries) from the dataset, the batch engine's target shape.
func extractMixedQueries(t *testing.T, ds *synth.Dataset, n int, seed uint64) []*gene.Matrix {
	t.Helper()
	rng := randgen.New(seed)
	out := make([]*gene.Matrix, n)
	for i := range out {
		nq := 2
		if i%2 == 1 {
			nq = 5
		}
		q, _, err := ds.ExtractQuery(rng, nq)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = q
	}
	return out
}

// statCounters is st with its durations and plan pointer cleared: what is
// left is every counter of a run, comparable with ==.
func statCounters(st core.Stats) core.Stats {
	st.InferQuery, st.Traversal, st.Refinement = 0, 0, 0
	st.MarkovPrune, st.MonteCarlo, st.Total = 0, 0, 0
	st.Plan = nil
	return st
}

// assertBatchItemMatches compares one batch item's outcome against its
// solo-run reference: answers bit-for-bit, and every counter of the run,
// page I/O included — a batch item is a solo run.
func assertBatchItemMatches(t *testing.T, label string, ref []core.Answer, refSt core.Stats, got core.BatchResult) {
	t.Helper()
	if got.Err != nil {
		t.Fatalf("%s: batch item error: %v", label, got.Err)
	}
	if len(ref) != len(got.Answers) {
		t.Fatalf("%s: %d answers sequential vs %d batch", label, len(ref), len(got.Answers))
	}
	for i := range ref {
		if ref[i].Source != got.Answers[i].Source || ref[i].Prob != got.Answers[i].Prob {
			t.Fatalf("%s: answer %d differs: (%d, %v) vs (%d, %v)",
				label, i, ref[i].Source, ref[i].Prob, got.Answers[i].Source, got.Answers[i].Prob)
		}
		if len(ref[i].Edges) != len(got.Answers[i].Edges) {
			t.Fatalf("%s: answer %d edge count differs", label, i)
		}
		for j := range ref[i].Edges {
			if ref[i].Edges[j] != got.Answers[i].Edges[j] {
				t.Fatalf("%s: answer %d edge %d differs", label, i, j)
			}
		}
	}
	if statCounters(refSt) != statCounters(got.Stats) {
		t.Fatalf("%s: counters differ:\nseq:   %+v\nbatch: %+v", label, refSt, got.Stats)
	}
}

// soloReference answers items one by one on fresh processors — the
// sequential loop a batch must equal.
func soloReference(t *testing.T, idx *index.Index, items []core.BatchItem) ([][]core.Answer, []core.Stats) {
	t.Helper()
	answers := make([][]core.Answer, len(items))
	sts := make([]core.Stats, len(items))
	for i, it := range items {
		proc, err := core.NewProcessor(idx, it.Params)
		if err != nil {
			t.Fatal(err)
		}
		if it.Graph != nil {
			answers[i], sts[i], err = proc.QueryGraph(it.Graph)
		} else {
			answers[i], sts[i], err = proc.Query(it.Matrix)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return answers, sts
}

// TestBatchItemStatsEqualSolo is the per-item contract: under the scalar
// and the batched inference kernel, for matrix and for pre-inferred graph
// items, a batch item's answers and every counter of its Stats — IOCost
// and IOHits too — are those of the solo run. Both sides share one
// edge-probability cache across their items, as an engine does.
func TestBatchItemStatsEqualSolo(t *testing.T) {
	ds, idx := buildConcFixture(t, 107)
	queries := extractMixedQueries(t, ds, 6, 109)
	for _, scalar := range []bool{true, false} {
		for _, asGraph := range []bool{false, true} {
			t.Run(fmt.Sprintf("scalarKernel=%v/graphItems=%v", scalar, asGraph), func(t *testing.T) {
				mkItems := func() []core.BatchItem {
					params := core.Params{Gamma: 0.5, Alpha: 0.3, Seed: 9,
						Plan: kernelPlan(t, 32, !scalar), Cache: core.NewEdgeProbCache(1 << 12)}
					items := make([]core.BatchItem, len(queries))
					for i, q := range queries {
						items[i] = core.BatchItem{Matrix: q, Params: params}
						if asGraph {
							g, err := grn.Infer(q, grn.AnalyticScorer{}, params.Gamma)
							if err != nil {
								t.Fatal(err)
							}
							items[i] = core.BatchItem{Graph: g, Params: params}
						}
					}
					return items
				}
				refAnswers, refStats := soloReference(t, idx, mkItems())
				results, bst := core.QueryBatch(context.Background(), idx, mkItems(), core.BatchOptions{})
				if bst.Queries != len(queries) || bst.Errors != 0 {
					t.Fatalf("batch stats: %+v", bst)
				}
				pages := uint64(0)
				for i := range results {
					assertBatchItemMatches(t, fmt.Sprintf("query %d", i), refAnswers[i], refStats[i], results[i])
					pages += results[i].Stats.IOCost
				}
				if pages == 0 {
					t.Fatal("no item touched a page: the I/O comparison is vacuous")
				}
			})
		}
	}
}

// TestBatchMatchesSequentialMC pins the headline determinism contract:
// a batch is byte-identical to running the same queries
// sequentially against the same engine (fresh per-query processors, one
// shared MC edge-probability cache), for the Monte Carlo kernel.
func TestBatchMatchesSequentialMC(t *testing.T) {
	ds, idx := buildConcFixture(t, 71)
	queries := extractMixedQueries(t, ds, 6, 91)

	mkItems := func(cache *core.EdgeProbCache) []core.BatchItem {
		items := make([]core.BatchItem, len(queries))
		for i, q := range queries {
			items[i] = core.BatchItem{Matrix: q, Params: core.Params{
				Gamma: 0.5, Alpha: 0.3, Samples: 32, Seed: 9, Cache: cache,
			}}
		}
		return items
	}

	// Sequential reference with its own (fresh) shared cache.
	refAnswers, refStats := soloReference(t, idx, mkItems(core.NewEdgeProbCache(1<<12)))

	// Batch run with an equally fresh cache.
	batchItems := mkItems(core.NewEdgeProbCache(1 << 12))
	var streamed []int
	results, bst := core.QueryBatch(context.Background(), idx, batchItems, core.BatchOptions{
		OnResult: func(i int, _ core.BatchResult) { streamed = append(streamed, i) },
	})
	if bst.Queries != len(queries) || bst.Errors != 0 {
		t.Fatalf("batch stats: %+v", bst)
	}
	for i := range results {
		assertBatchItemMatches(t, fmt.Sprintf("query %d", i), refAnswers[i], refStats[i], results[i])
	}
	// Core streams results in item order.
	for i, s := range streamed {
		if s != i {
			t.Fatalf("OnResult order = %v", streamed)
		}
	}
}

// TestBatchMatchesSequentialAnalytic is the same contract under the
// analytic kernel (no RNG at all).
func TestBatchMatchesSequentialAnalytic(t *testing.T) {
	ds, idx := buildConcFixture(t, 73)
	queries := extractMixedQueries(t, ds, 6, 93)
	params := core.Params{Gamma: 0.5, Alpha: 0.3, Seed: 5, Analytic: true}

	items := make([]core.BatchItem, len(queries))
	for i, q := range queries {
		items[i] = core.BatchItem{Matrix: q, Params: params}
	}
	refAnswers, refStats := soloReference(t, idx, items)
	results, _ := core.QueryBatch(context.Background(), idx, items, core.BatchOptions{})
	for i := range results {
		assertBatchItemMatches(t, fmt.Sprintf("query %d", i), refAnswers[i], refStats[i], results[i])
	}
}

// TestBatchMixedGammasGroupSeparately: items of one batch may differ in
// every parameter; with alternating γ each item still matches its solo run
// in answers and in every counter.
func TestBatchMixedGammasGroupSeparately(t *testing.T) {
	ds, idx := buildConcFixture(t, 79)
	queries := extractMixedQueries(t, ds, 4, 95)
	gammas := []float64{0.4, 0.6, 0.4, 0.6}

	items := make([]core.BatchItem, len(queries))
	for i, q := range queries {
		items[i] = core.BatchItem{Matrix: q, Params: core.Params{Gamma: gammas[i], Alpha: 0.3, Samples: 24, Seed: 11}}
	}
	refAnswers, refStats := soloReference(t, idx, items)
	results, bst := core.QueryBatch(context.Background(), idx, items, core.BatchOptions{})
	if bst.Queries != len(items) || bst.Errors != 0 {
		t.Fatalf("batch stats: %+v", bst)
	}
	for i := range results {
		assertBatchItemMatches(t, fmt.Sprintf("query %d", i), refAnswers[i], refStats[i], results[i])
	}
}

// TestBatchItemIsolation: an item with no query fails alone, without
// affecting its siblings. (BatchItem.K is the coordinators' to honor; the
// shard package tests the K-trimmed item.)
func TestBatchItemIsolation(t *testing.T) {
	ds, idx := buildConcFixture(t, 97)
	queries := extractMixedQueries(t, ds, 2, 101)
	params := core.Params{Gamma: 0.5, Alpha: 0.2, Seed: 5, Analytic: true}
	items := []core.BatchItem{
		{Matrix: queries[0], Params: params},
		{Params: params}, // no matrix, no graph
		{Matrix: queries[1], Params: params},
	}
	results, bst := core.QueryBatch(context.Background(), idx, items, core.BatchOptions{})
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("sibling errors: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("empty item did not error")
	}
	if bst.Errors != 1 {
		t.Fatalf("batch errors = %d, want 1", bst.Errors)
	}
}

// TestBatchItemTimeout: an unreasonably small per-item budget fails items
// individually, not the batch.
func TestBatchItemTimeout(t *testing.T) {
	ds, idx := buildConcFixture(t, 101)
	queries := extractMixedQueries(t, ds, 2, 103)
	params := core.Params{Gamma: 0.5, Alpha: 0.3, Samples: 32, Seed: 5}
	items := []core.BatchItem{
		{Matrix: queries[0], Params: params},
		{Matrix: queries[1], Params: params},
	}
	results, _ := core.QueryBatch(context.Background(), idx, items, core.BatchOptions{
		ItemTimeout: time.Nanosecond,
	})
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("item %d: expected timeout error", i)
		}
	}
	// A generous budget succeeds.
	results, _ = core.QueryBatch(context.Background(), idx, items, core.BatchOptions{
		ItemTimeout: time.Minute,
	})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
}

// TestBatchOutOfRangeGeneLabels: gene labels are caller-supplied int32s, so
// a neighbor gene may be negative or 2³¹−1. A batch must answer such items
// exactly like the solo path — no answers, same counters — beside a valid
// sibling.
func TestBatchOutOfRangeGeneLabels(t *testing.T) {
	ds, idx := buildConcFixture(t, 113)
	known := ds.DB.Matrix(0).Gene(0)
	params := core.Params{Gamma: 0.5, Alpha: 0.3, Seed: 7, Analytic: true}
	graphWith := func(a, b gene.ID) *grn.Graph {
		g := grn.NewGraph([]gene.ID{a, b})
		g.SetEdge(0, 1, 0.9)
		return g
	}
	valid := extractMixedQueries(t, ds, 1, 115)[0]
	items := []core.BatchItem{
		{Graph: graphWith(known, -11), Params: params},
		{Graph: graphWith(-11, known), Params: params},
		{Graph: graphWith(known, math.MaxInt32), Params: params},
		{Graph: graphWith(math.MaxInt32, known), Params: params},
		{Matrix: valid, Params: params},
	}
	results, bst := core.QueryBatch(context.Background(), idx, items, core.BatchOptions{})
	if bst.Errors != 0 {
		t.Fatalf("batch errors = %d", bst.Errors)
	}
	refAnswers, refStats := soloReference(t, idx, items)
	for i, it := range items {
		if it.Graph != nil && len(refAnswers[i]) != 0 {
			t.Fatalf("item %d: solo path answered %d sources for an unknown gene", i, len(refAnswers[i]))
		}
		assertBatchItemMatches(t, fmt.Sprintf("item %d", i), refAnswers[i], refStats[i], results[i])
	}
}
