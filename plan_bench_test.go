package imgrn_test

import (
	"os"
	"testing"

	imgrn "github.com/imgrn/imgrn"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/plan"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/synth"
)

// planBench is the mixed easy/hard workload the adaptive planner is
// measured on: queries alternate between narrow (n_Q = 2, too narrow for
// the batched kernel to amortize, few edges to verify) and wide
// (n_Q = 8, hundreds of candidate pairs stressing Lemma-5 pruning and
// verification). The mix is the point — a planner tuned on one shape
// must not regress the other.
type planBench struct {
	db      *imgrn.Database
	queries []*gene.Matrix
	widths  []int
}

func setupPlanBench(tb testing.TB) *planBench {
	tb.Helper()
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: 300, NMin: 15, NMax: 30, LMin: 10, LMax: 20,
		Dist: synth.Uniform, GenePool: 40, Seed: 51,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rng := randgen.New(52)
	pb := &planBench{db: ds.DB}
	for i := 0; i < 8; i++ {
		nq := 2
		if i%2 == 1 {
			nq = 8
		}
		q, _, err := ds.ExtractQuery(rng, nq)
		if err != nil {
			tb.Fatal(err)
		}
		pb.queries = append(pb.queries, q)
		pb.widths = append(pb.widths, nq)
	}
	return pb
}

func openPlanBench(tb testing.TB, pb *planBench) *imgrn.Engine {
	tb.Helper()
	eng, err := imgrn.Open(pb.db, imgrn.IndexOptions{
		D: 2, Samples: 24, Seed: 51, Bits: 1024, BufferPages: 1024,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

func planBenchParams(i int) imgrn.QueryParams {
	// Analytic estimator for P-independent, noise-free verification cost
	// (same reasoning as shardBenchQuery).
	return imgrn.QueryParams{Gamma: 0.4, Alpha: 0.3, Seed: 2000 + uint64(i), Analytic: true}
}

// planBenchRequest mirrors what the server's -plan-adaptive loop builds
// per request: the full fixed stage set plus the query's shape and the
// index's §4 pivot-cost prior.
func planBenchRequest(eng *imgrn.Engine, nq int) plan.Request {
	bs := eng.IndexStats()
	mean := 0.0
	if bs.Vectors > 0 {
		mean = bs.PivotCostSum / float64(bs.Vectors)
	}
	return plan.Request{
		Pivot: true, Signatures: true, Markov: true, Batch: true,
		QueryGenes:    nq,
		DBVectors:     bs.Vectors,
		MeanPivotCost: mean,
	}
}

// runPlanBenchQuery executes workload query i under the planner (nil =
// fixed pipeline) and feeds realized stage statistics back.
func runPlanBenchQuery(tb testing.TB, eng *imgrn.Engine, pb *planBench, pl *imgrn.Planner, i int) {
	tb.Helper()
	k := i % len(pb.queries)
	params := planBenchParams(i)
	if pl != nil {
		p, err := pl.Plan(planBenchRequest(eng, pb.widths[k]))
		if err != nil {
			tb.Fatal(err)
		}
		params.Plan = p
	}
	_, st, err := eng.Query(pb.queries[k], params)
	if err != nil {
		tb.Fatal(err)
	}
	if pl != nil {
		pl.Observe(st.PlanFeedback())
	}
}

// warmPlanner runs the whole workload once untimed so the cost model is
// past its warm-up gate and its skip decisions are stable before
// measurement — the steady state a long-running server converges to.
func warmPlanner(tb testing.TB, eng *imgrn.Engine, pb *planBench) *imgrn.Planner {
	tb.Helper()
	pl := imgrn.NewPlanner(imgrn.PlannerOptions{MinQueries: len(pb.queries)})
	for i := 0; i < 2*len(pb.queries); i++ {
		runPlanBenchQuery(tb, eng, pb, pl, i)
	}
	return pl
}

// BenchmarkPlanQuery compares the fixed pipeline against a warmed
// adaptive planner on the mixed-width workload (`make bench-plan` ->
// BENCH_plan.json, with the derived adaptive-vs-fixed speedup). The
// planner's win here is dropping stages that do not pay on this
// workload; its bound is the smoke gate below.
func BenchmarkPlanQuery(b *testing.B) {
	pb := setupPlanBench(b)
	b.Run("fixed", func(b *testing.B) {
		eng := openPlanBench(b, pb)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runPlanBenchQuery(b, eng, pb, nil, i)
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		eng := openPlanBench(b, pb)
		pl := warmPlanner(b, eng, pb)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runPlanBenchQuery(b, eng, pb, pl, i)
		}
	})
}

// TestPlanNotSlowerThanFixed is the CI benchmark gate for the planner
// seam (`make bench-plan-smoke`): on the mixed easy/hard workload a
// warmed adaptive planner must never be more than 1.1x slower than the
// fixed pipeline. The planner's skip rules are conservative by
// construction (a stage that pays for itself is never dropped), so the
// adaptive path should track the fixed one and win where stages are
// dead weight; the 1.1x margin absorbs planning overhead plus runner
// noise. Re-measured after the leaf-level source join (which removed the
// traversal time both plans shared, 1.08 -> 0.24 ms fixed): adaptive is
// 1.23x–1.28x faster than fixed, so the bound has not tightened. Gated behind BENCH_PLAN=1 so ordinary `go test` runs never
// flake on timing.
func TestPlanNotSlowerThanFixed(t *testing.T) {
	if os.Getenv("BENCH_PLAN") != "1" {
		t.Skip("set BENCH_PLAN=1 to run the planner benchmark gate")
	}
	pb := setupPlanBench(t)

	fixedEng := openPlanBench(t, pb)
	fi := 0
	fixed := testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			runPlanBenchQuery(b, fixedEng, pb, nil, fi)
			fi++
		}
	})

	adaptiveEng := openPlanBench(t, pb)
	pl := warmPlanner(t, adaptiveEng, pb)
	ai := 0
	adaptive := testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			runPlanBenchQuery(b, adaptiveEng, pb, pl, ai)
			ai++
		}
	})

	t.Logf("fixed %v ns/op, adaptive %v ns/op (%.2fx)",
		fixed.NsPerOp(), adaptive.NsPerOp(),
		float64(fixed.NsPerOp())/float64(adaptive.NsPerOp()))
	if float64(adaptive.NsPerOp()) > 1.1*float64(fixed.NsPerOp()) {
		t.Errorf("adaptive planner slower than 1.1x fixed: %v ns/op vs %v ns/op",
			adaptive.NsPerOp(), fixed.NsPerOp())
	}
}
