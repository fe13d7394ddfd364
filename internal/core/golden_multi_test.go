package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/imgrn/imgrn/internal/core"
)

// goldenBatchFingerprint pins the multi-query batch engine the same way
// golden_test.go pins the solo pipeline: the fixed-seed workload runs
// once through core.QueryBatch and once as a sequential loop of fresh
// per-query processors over the same shared edge-probability cache (the
// documented byte-identity reference), the two must match each other
// exactly — fingerprint and page-I/O counters — and the batch fingerprint
// is pinned to a golden file (which predates the I/O comparison and does
// not carry those two counters).
func goldenBatchFingerprint(t *testing.T, params core.Params) string {
	t.Helper()
	idx, queries := goldenFixture(t)
	items := make([]core.BatchItem, len(queries))
	for i, q := range queries {
		items[i] = core.BatchItem{Matrix: q, Params: params}
	}

	fingerprint := func(i int, a []core.Answer, st core.Stats) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, "q%d answers=%d cand=%d genes=%d l5=%d npv=%d npp=%d ppc=%d ppp=%d qv=%d qe=%d ch=%d cm=%d\n",
			i, len(a), st.CandidateMatrices, st.CandidateGenes, st.MatricesPrunedL5,
			st.NodePairsVisited, st.NodePairsPruned, st.PointPairsChecked, st.PointPairsPruned,
			st.QueryVertices, st.QueryEdges, st.CacheHits, st.CacheMisses)
		for _, an := range a {
			fmt.Fprintf(&sb, "  src=%d prob=%.17g edges=%d\n", an.Source, an.Prob, len(an.Edges))
		}
		return sb.String()
	}
	ioLine := func(st core.Stats) string { return fmt.Sprintf("  io=%d hits=%d\n", st.IOCost, st.IOHits) }

	// Sequential reference: fresh processor per query, shared cache.
	var seq strings.Builder
	seqCache := core.NewEdgeProbCache(1 << 12)
	for i := range items {
		p := items[i].Params
		p.Cache = seqCache
		proc, err := core.NewProcessor(idx, p)
		if err != nil {
			t.Fatal(err)
		}
		a, st, err := proc.Query(items[i].Matrix)
		if err != nil {
			t.Fatal(err)
		}
		seq.WriteString(fingerprint(i, a, st) + ioLine(st))
	}

	batchCache := core.NewEdgeProbCache(1 << 12)
	for i := range items {
		items[i].Params.Cache = batchCache
	}
	results, bst := core.QueryBatch(context.Background(), idx, items, core.BatchOptions{})
	if bst.Errors != 0 {
		t.Fatalf("batch stats: %+v", bst)
	}
	var got, golden strings.Builder
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		fp := fingerprint(i, r.Answers, r.Stats)
		golden.WriteString(fp)
		got.WriteString(fp + ioLine(r.Stats))
	}
	if got.String() != seq.String() {
		t.Errorf("batch diverged from its sequential reference:\n batch:\n%s\n sequential:\n%s",
			got.String(), seq.String())
	}
	return golden.String()
}

// TestMultiQueryGoldenFingerprint pins QueryBatch under the scalar
// inference kernel to a fixed-seed fingerprint. Regenerate deliberately
// with GOLDEN_WRITE=1 after an intentional algorithm change.
func TestMultiQueryGoldenFingerprint(t *testing.T) {
	got := goldenBatchFingerprint(t, core.Params{Gamma: 0.5, Alpha: 0.4, Samples: 48, Seed: 9,
		Plan: kernelPlan(t, 48, false)})
	compareGolden(t, "testdata/golden_multi.txt", got)
}

// TestMultiQueryBatchKernelGoldenFingerprint pins QueryBatch under the
// batched inference kernel (the default), whose per-query permutation
// table gives it a legitimately different fingerprint.
func TestMultiQueryBatchKernelGoldenFingerprint(t *testing.T) {
	got := goldenBatchFingerprint(t, core.Params{Gamma: 0.5, Alpha: 0.4, Samples: 48, Seed: 9})
	compareGolden(t, "testdata/golden_multi_batch.txt", got)
}
