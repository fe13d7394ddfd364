package imgrn_test

import (
	"os"
	"testing"

	imgrn "github.com/imgrn/imgrn"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/synth"
)

// batchBench is the multi-query workload the batch engine is measured
// on: the ad-hoc exploration pattern batching targets. A client studying
// a pathway rarely sends one query — it probes the full extracted region
// and then narrower variants of it. Here two 8-gene base regions are
// each probed at widths 8, 6, 4 and 2 (B = 8 items, mixed width). The
// variants share anchor and neighbor genes, so their index descents
// overlap — the regime where the batch engine's shared γ-group traversal
// amortizes page touches, heap pops and Lemma-6 bounds across members.
type batchBench struct {
	db      *imgrn.Database
	queries []*gene.Matrix
}

func setupBatchBench(tb testing.TB) *batchBench {
	tb.Helper()
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: 300, NMin: 15, NMax: 30, LMin: 10, LMax: 20,
		Dist: synth.Uniform, GenePool: 40, Seed: 81,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rng := randgen.New(82)
	bb := &batchBench{db: ds.DB}
	for b := 0; b < 2; b++ {
		base, _, err := ds.ExtractQuery(rng, 8)
		if err != nil {
			tb.Fatal(err)
		}
		for _, nq := range []int{8, 6, 4, 2} {
			// Prefixes of the BFS-ordered extraction stay connected, so
			// every width probes the same region of the base pathway.
			cols := make([]int, nq)
			for j := range cols {
				cols[j] = j
			}
			q, err := base.SubMatrix(-1-len(bb.queries), cols)
			if err != nil {
				tb.Fatal(err)
			}
			bb.queries = append(bb.queries, q)
		}
	}
	return bb
}

func openBatchBench(tb testing.TB, bb *batchBench) *imgrn.Engine {
	tb.Helper()
	eng, err := imgrn.Open(bb.db, imgrn.IndexOptions{
		D: 2, Samples: 24, Seed: 81, Bits: 1024, BufferPages: 1024,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

func batchBenchParams(i int) imgrn.QueryParams {
	// Monte Carlo verification under one shared seed — what a batch
	// client sends — so queries probing the same (source, column) can
	// share permutation fills in the SharedPerms mode.
	_ = i
	return imgrn.QueryParams{Gamma: 0.4, Alpha: 0.3, Samples: 48, Seed: 3000}
}

// runBatchBenchSequential answers the workload as B independent queries
// — the baseline a /query client pays today.
func runBatchBenchSequential(tb testing.TB, eng *imgrn.Engine, bb *batchBench) {
	tb.Helper()
	for i, q := range bb.queries {
		if _, _, err := eng.Query(q, batchBenchParams(i)); err != nil {
			tb.Fatal(err)
		}
	}
}

// runBatchBenchBatch answers the same workload as one engine batch.
func runBatchBenchBatch(tb testing.TB, eng *imgrn.Engine, bb *batchBench, shared bool) {
	tb.Helper()
	items := make([]imgrn.BatchItem, len(bb.queries))
	for i, q := range bb.queries {
		items[i] = imgrn.BatchItem{Matrix: q, Params: batchBenchParams(i)}
	}
	results, _ := eng.QueryBatch(items, imgrn.BatchOptions{SharedPerms: shared})
	for i := range results {
		if results[i].Err != nil {
			tb.Fatal(results[i].Err)
		}
	}
}

// BenchmarkBatchQuery compares one B=8 mixed-width workload answered
// three ways (`make bench-batch` -> BENCH_batch.json with the derived
// batch-vs-sequential speedups): as 8 sequential queries, as one batch
// (byte-identical answers, shared γ-group traversals and plan
// resolution), and as one batch with shared permutation fills
// (deterministic, not byte-identical). One ns/op is one whole workload.
func BenchmarkBatchQuery(b *testing.B) {
	bb := setupBatchBench(b)
	b.Run("sequential", func(b *testing.B) {
		eng := openBatchBench(b, bb)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runBatchBenchSequential(b, eng, bb)
		}
	})
	b.Run("batch", func(b *testing.B) {
		eng := openBatchBench(b, bb)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runBatchBenchBatch(b, eng, bb, false)
		}
	})
	b.Run("batch_sharedPerms", func(b *testing.B) {
		eng := openBatchBench(b, bb)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runBatchBenchBatch(b, eng, bb, true)
		}
	})
}

// TestBatchNotSlowerThanSequential is the CI benchmark gate for the
// batch engine (`make bench-batch-smoke`): the B=8 mixed-width batch must
// run at no less than 0.85x the speed of 8 sequential queries. Until the
// leaf-level source join the batch was 1.5x–1.6x faster and the gate asked
// for 1.25x: one shared pass over each leaf pair replaced eight quadratic
// scans. With the join a leaf pair costs a few hundred nanoseconds, the
// descent is a third of either side's time, and the eight members' node
// admissions are evaluated separately anyway, so the shared descent saves
// page touches but no CPU: measured 0.93x–1.02x (refinement, identical on
// both sides by the byte-identity contract, is 60 % of the batch). The gate
// keeps the batch path from falling behind the loop it replaces, with a
// margin of 0.08 below the lowest measurement for runner noise. Gated behind BENCH_BATCH=1 so ordinary
// `go test` runs never flake on timing.
func TestBatchNotSlowerThanSequential(t *testing.T) {
	if os.Getenv("BENCH_BATCH") != "1" {
		t.Skip("set BENCH_BATCH=1 to run the batch benchmark gate")
	}
	bb := setupBatchBench(t)

	seqEng := openBatchBench(t, bb)
	sequential := testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			runBatchBenchSequential(b, seqEng, bb)
		}
	})

	batchEng := openBatchBench(t, bb)
	batch := testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			runBatchBenchBatch(b, batchEng, bb, false)
		}
	})

	speedup := float64(sequential.NsPerOp()) / float64(batch.NsPerOp())
	t.Logf("sequential %v ns/op, batch %v ns/op (%.2fx)",
		sequential.NsPerOp(), batch.NsPerOp(), speedup)
	if speedup < 0.85 {
		t.Errorf("batch at %.2fx of sequential speed, below the 0.85x gate (sequential %v ns/op, batch %v ns/op)",
			speedup, sequential.NsPerOp(), batch.NsPerOp())
	}
}
