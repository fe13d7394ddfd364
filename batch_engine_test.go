package imgrn_test

import (
	"fmt"
	"testing"

	imgrn "github.com/imgrn/imgrn"
)

// batchQueries pulls a mixed-width query workload out of the fixture
// database: alternating 2- and 3-gene sub-matrices of the first sources.
func batchQueries(t *testing.T, db *imgrn.Database, n int) []*imgrn.Matrix {
	t.Helper()
	out := make([]*imgrn.Matrix, n)
	for i := range out {
		cols := []int{0, 1}
		if i%2 == 1 {
			cols = []int{0, 1, 2}
		}
		qm, err := db.BySource(i%6).SubMatrix(-1, cols)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = qm
	}
	return out
}

func assertAnswersEqual(t *testing.T, label string, want, got []imgrn.Answer) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d answers sequential vs %d batch", label, len(want), len(got))
	}
	for i := range want {
		if want[i].Source != got[i].Source || want[i].Prob != got[i].Prob {
			t.Fatalf("%s: answer %d differs: sequential (src=%d p=%v), batch (src=%d p=%v)",
				label, i, want[i].Source, want[i].Prob, got[i].Source, got[i].Prob)
		}
		if len(want[i].Edges) != len(got[i].Edges) {
			t.Fatalf("%s: answer %d edge count differs", label, i)
		}
		for j := range want[i].Edges {
			if want[i].Edges[j] != got[i].Edges[j] {
				t.Fatalf("%s: answer %d edge %d differs", label, i, j)
			}
		}
	}
}

// TestEngineBatchMatchesSequential pins the public determinism contract:
// QueryBatch on a fresh engine is byte-identical to a sequential Query
// loop on an identically fresh engine, Monte Carlo kernel included (the
// engines must be distinct so both start with cold probability caches).
func TestEngineBatchMatchesSequential(t *testing.T) {
	opts := imgrn.IndexOptions{D: 2, Samples: 24, Seed: 61}
	params := imgrn.QueryParams{Gamma: 0.6, Alpha: 0.3, Samples: 32, Seed: 63}

	seqEng, err := imgrn.Open(buildPublicFixture(t, 18, 60), opts)
	if err != nil {
		t.Fatal(err)
	}
	batchEng, err := imgrn.Open(buildPublicFixture(t, 18, 60), opts)
	if err != nil {
		t.Fatal(err)
	}
	queries := batchQueries(t, seqEng.Database(), 8)

	want := make([][]imgrn.Answer, len(queries))
	for i, qm := range queries {
		a, _, err := seqEng.Query(qm, params)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a
	}

	items := make([]imgrn.BatchItem, len(queries))
	for i, qm := range queries {
		items[i] = imgrn.BatchItem{Matrix: qm, Params: params}
	}
	results, bst := batchEng.QueryBatch(items, imgrn.BatchOptions{})
	if bst.Errors != 0 || bst.Queries != len(queries) {
		t.Fatalf("batch stats: %+v", bst)
	}
	for i := range results {
		if results[i].Err != nil {
			t.Fatalf("item %d: %v", i, results[i].Err)
		}
		assertAnswersEqual(t, fmt.Sprintf("query %d", i), want[i], results[i].Answers)
	}
}

// TestShardedBatchMatchesSequential is the same contract on a P=3 sharded
// engine: one batch scatter vs a sequential sharded query loop.
func TestShardedBatchMatchesSequential(t *testing.T) {
	opts := imgrn.IndexOptions{D: 2, Samples: 24, Seed: 67}
	params := imgrn.QueryParams{Gamma: 0.6, Alpha: 0.3, Samples: 32, Seed: 69}

	seqEng, err := imgrn.OpenSharded(buildPublicFixture(t, 18, 66), opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	batchEng, err := imgrn.OpenSharded(buildPublicFixture(t, 18, 66), opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	queries := batchQueries(t, seqEng.Database(), 6)

	want := make([][]imgrn.Answer, len(queries))
	for i, qm := range queries {
		a, _, err := seqEng.Query(qm, params)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a
	}

	items := make([]imgrn.BatchItem, len(queries))
	for i, qm := range queries {
		items[i] = imgrn.BatchItem{Matrix: qm, Params: params}
	}
	done := make([]bool, len(queries))
	results, bst := batchEng.QueryBatch(items, imgrn.BatchOptions{
		OnResult: func(i int, _ imgrn.BatchResult) { done[i] = true },
	})
	if bst.Errors != 0 {
		t.Fatalf("batch stats: %+v", bst)
	}
	for i := range results {
		if results[i].Err != nil {
			t.Fatalf("item %d: %v", i, results[i].Err)
		}
		if !done[i] {
			t.Fatalf("item %d never streamed", i)
		}
		assertAnswersEqual(t, fmt.Sprintf("query %d", i), want[i], results[i].Answers)
		if results[i].Stats.QueryEdges == 0 {
			t.Fatalf("item %d: merged stats empty: %+v", i, results[i].Stats)
		}
	}
}

// TestShardedBatchTopK: per-item K on a sharded batch reproduces
// QueryTopK's ranked prefix (per-item cross-shard sink floors).
func TestShardedBatchTopK(t *testing.T) {
	opts := imgrn.IndexOptions{D: 2, Samples: 24, Seed: 71}
	params := imgrn.QueryParams{Gamma: 0.6, Alpha: 0.2, Seed: 73, Analytic: true}

	seqEng, err := imgrn.OpenSharded(buildPublicFixture(t, 16, 70), opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	batchEng, err := imgrn.OpenSharded(buildPublicFixture(t, 16, 70), opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	queries := batchQueries(t, seqEng.Database(), 4)

	const k = 3
	want := make([][]imgrn.Answer, len(queries))
	for i, qm := range queries {
		a, _, err := seqEng.QueryTopK(qm, params, k)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a
	}
	items := make([]imgrn.BatchItem, len(queries))
	for i, qm := range queries {
		items[i] = imgrn.BatchItem{Matrix: qm, Params: params, K: k}
	}
	results, _ := batchEng.QueryBatch(items, imgrn.BatchOptions{})
	for i := range results {
		if results[i].Err != nil {
			t.Fatalf("item %d: %v", i, results[i].Err)
		}
		if len(results[i].Answers) > k {
			t.Fatalf("item %d: %d answers exceed K=%d", i, len(results[i].Answers), k)
		}
		assertAnswersEqual(t, fmt.Sprintf("query %d", i), want[i], results[i].Answers)
	}
}
