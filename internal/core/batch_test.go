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

// assertBatchItemMatches compares one batch item's outcome against its
// solo-run reference: answers bit-for-bit, and every counter the shared
// traversal claims to preserve exactly. I/O counters are excluded by
// design — the shared descent touches each page once per group, so a
// member's I/O accounting differs from a solo run (see DESIGN.md §14).
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
	st := got.Stats
	if refSt.NodePairsVisited != st.NodePairsVisited || refSt.NodePairsPruned != st.NodePairsPruned ||
		refSt.PointPairsChecked != st.PointPairsChecked || refSt.PointPairsPruned != st.PointPairsPruned {
		t.Fatalf("%s: traversal counters differ:\nseq:   %+v\nbatch: %+v", label, refSt, st)
	}
	if refSt.CandidateMatrices != st.CandidateMatrices || refSt.CandidateGenes != st.CandidateGenes ||
		refSt.MatricesPrunedL5 != st.MatricesPrunedL5 || refSt.Answers != st.Answers ||
		refSt.CacheHits != st.CacheHits || refSt.CacheMisses != st.CacheMisses ||
		refSt.QueryVertices != st.QueryVertices || refSt.QueryEdges != st.QueryEdges {
		t.Fatalf("%s: refinement counters differ:\nseq:   %+v\nbatch: %+v", label, refSt, st)
	}
}

// TestBatchMatchesSequentialMC pins the headline determinism contract:
// a default-mode batch is byte-identical to running the same queries
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
	seqCache := core.NewEdgeProbCache(1 << 12)
	seqItems := mkItems(seqCache)
	refAnswers := make([][]core.Answer, len(seqItems))
	refStats := make([]core.Stats, len(seqItems))
	for i, it := range seqItems {
		proc, err := core.NewProcessor(idx, it.Params)
		if err != nil {
			t.Fatal(err)
		}
		a, st, err := proc.Query(it.Matrix)
		if err != nil {
			t.Fatal(err)
		}
		refAnswers[i], refStats[i] = a, st
	}

	// Batch run with an equally fresh cache.
	batchItems := mkItems(core.NewEdgeProbCache(1 << 12))
	var streamed []int
	results, bst := core.QueryBatch(context.Background(), idx, batchItems, core.BatchOptions{
		OnResult: func(i int, _ core.BatchResult) { streamed = append(streamed, i) },
	})
	if bst.Queries != len(queries) || bst.Errors != 0 {
		t.Fatalf("batch stats: %+v", bst)
	}
	if bst.Groups < 1 {
		t.Fatalf("expected at least one shared traversal group, got %+v", bst)
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
	refAnswers := make([][]core.Answer, len(queries))
	refStats := make([]core.Stats, len(queries))
	for i, q := range queries {
		items[i] = core.BatchItem{Matrix: q, Params: params}
		proc, err := core.NewProcessor(idx, params)
		if err != nil {
			t.Fatal(err)
		}
		a, st, err := proc.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		refAnswers[i], refStats[i] = a, st
	}
	results, _ := core.QueryBatch(context.Background(), idx, items, core.BatchOptions{})
	for i := range results {
		assertBatchItemMatches(t, fmt.Sprintf("query %d", i), refAnswers[i], refStats[i], results[i])
	}
}

// TestBatchMixedGammasGroupSeparately: items with different γ cannot share
// a descent; they split into groups and each still matches its solo run.
func TestBatchMixedGammasGroupSeparately(t *testing.T) {
	ds, idx := buildConcFixture(t, 79)
	queries := extractMixedQueries(t, ds, 4, 95)
	gammas := []float64{0.4, 0.6, 0.4, 0.6}

	items := make([]core.BatchItem, len(queries))
	refAnswers := make([][]core.Answer, len(queries))
	refStats := make([]core.Stats, len(queries))
	for i, q := range queries {
		p := core.Params{Gamma: gammas[i], Alpha: 0.3, Samples: 24, Seed: 11}
		items[i] = core.BatchItem{Matrix: q, Params: p}
		proc, err := core.NewProcessor(idx, p)
		if err != nil {
			t.Fatal(err)
		}
		a, st, err := proc.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		refAnswers[i], refStats[i] = a, st
	}
	results, bst := core.QueryBatch(context.Background(), idx, items, core.BatchOptions{})
	if bst.Groups != 2 {
		t.Fatalf("groups = %d, want 2 (one per γ)", bst.Groups)
	}
	for i := range results {
		assertBatchItemMatches(t, fmt.Sprintf("query %d", i), refAnswers[i], refStats[i], results[i])
	}
}

// TestBatchSharedPermsDeterministic: the shared-permutation mode is
// deterministic and independent of batch composition — every item's
// answers are a pure function of (Seed, source, column), so the same item
// must produce identical answers in different batches and orders.
func TestBatchSharedPermsDeterministic(t *testing.T) {
	ds, idx := buildConcFixture(t, 83)
	queries := extractMixedQueries(t, ds, 4, 97)
	params := core.Params{Gamma: 0.5, Alpha: 0.3, Samples: 32, Seed: 13}

	run := func(order []int) map[int]core.BatchResult {
		items := make([]core.BatchItem, len(order))
		for pos, qi := range order {
			items[pos] = core.BatchItem{Matrix: queries[qi], Params: params}
		}
		results, bst := core.QueryBatch(context.Background(), idx, items, core.BatchOptions{SharedPerms: true})
		if bst.PermFills == 0 && bst.PermProbes > 0 {
			t.Fatalf("perm pool counters inconsistent: %+v", bst)
		}
		out := make(map[int]core.BatchResult, len(order))
		for pos, qi := range order {
			if results[pos].Err != nil {
				t.Fatal(results[pos].Err)
			}
			out[qi] = results[pos]
		}
		return out
	}

	full := run([]int{0, 1, 2, 3})
	rev := run([]int{3, 2, 1, 0})
	sub := run([]int{2, 0})
	for qi, res := range full {
		for name, other := range map[string]map[int]core.BatchResult{"reversed": rev, "subset": sub} {
			o, ok := other[qi]
			if !ok {
				continue
			}
			if len(res.Answers) != len(o.Answers) {
				t.Fatalf("query %d: %s batch changed answer count", qi, name)
			}
			for i := range res.Answers {
				if res.Answers[i].Source != o.Answers[i].Source || res.Answers[i].Prob != o.Answers[i].Prob {
					t.Fatalf("query %d: %s batch changed answer %d", qi, name, i)
				}
			}
		}
	}
}

// TestBatchSharedPermsAnalyticIdentity: under the analytic kernel
// SharedPerms must be a no-op — no RNG exists to share.
func TestBatchSharedPermsAnalyticIdentity(t *testing.T) {
	ds, idx := buildConcFixture(t, 89)
	queries := extractMixedQueries(t, ds, 3, 99)
	params := core.Params{Gamma: 0.5, Alpha: 0.3, Seed: 7, Analytic: true}
	mkItems := func() []core.BatchItem {
		items := make([]core.BatchItem, len(queries))
		for i, q := range queries {
			items[i] = core.BatchItem{Matrix: q, Params: params}
		}
		return items
	}
	plain, _ := core.QueryBatch(context.Background(), idx, mkItems(), core.BatchOptions{})
	shared, bst := core.QueryBatch(context.Background(), idx, mkItems(), core.BatchOptions{SharedPerms: true})
	if bst.PermFills != 0 || bst.PermProbes != 0 {
		t.Fatalf("analytic batch used the perm pool: %+v", bst)
	}
	for i := range plain {
		if len(plain[i].Answers) != len(shared[i].Answers) {
			t.Fatalf("query %d: answer count differs", i)
		}
		for j := range plain[i].Answers {
			a, b := plain[i].Answers[j], shared[i].Answers[j]
			if a.Source != b.Source || a.Prob != b.Prob {
				t.Fatalf("query %d answer %d differs", i, j)
			}
		}
	}
}

// TestBatchItemIsolation: a nil item and a K-trimmed item behave per-item
// without affecting siblings.
func TestBatchItemIsolation(t *testing.T) {
	ds, idx := buildConcFixture(t, 97)
	queries := extractMixedQueries(t, ds, 2, 101)
	params := core.Params{Gamma: 0.5, Alpha: 0.2, Seed: 5, Analytic: true}
	items := []core.BatchItem{
		{Matrix: queries[0], Params: params},
		{Params: params}, // no matrix, no graph
		{Matrix: queries[1], Params: params, K: 1},
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
	if len(results[2].Answers) > 1 {
		t.Fatalf("K=1 item returned %d answers", len(results[2].Answers))
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
// a neighbor gene may be negative or 2³¹−1. The batch descent used to index
// a dense per-gene table with the raw ID (panic on a negative label, a
// 16 GiB allocation for 2³¹−1); it must answer such items exactly like the
// solo path — no answers, same traversal counters — beside a valid sibling.
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
	for i, it := range items {
		proc, err := core.NewProcessor(idx, params)
		if err != nil {
			t.Fatal(err)
		}
		var ref []core.Answer
		var refSt core.Stats
		if it.Graph != nil {
			ref, refSt, err = proc.QueryGraph(it.Graph)
		} else {
			ref, refSt, err = proc.Query(it.Matrix)
		}
		if err != nil {
			t.Fatal(err)
		}
		if it.Graph != nil && len(ref) != 0 {
			t.Fatalf("item %d: solo path answered %d sources for an unknown gene", i, len(ref))
		}
		assertBatchItemMatches(t, fmt.Sprintf("item %d", i), ref, refSt, results[i])
	}
}
