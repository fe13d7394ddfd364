package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/synth"
)

func buildConcFixture(t *testing.T, seed uint64) (*synth.Dataset, *index.Index) {
	t.Helper()
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: 60, NMin: 12, NMax: 20, LMin: 14, LMax: 20,
		Dist: synth.Gaussian, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(ds.DB, index.Options{D: 2, Samples: 24, Seed: seed, BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	return ds, idx
}

func extractQueries(t *testing.T, ds *synth.Dataset, n int, seed uint64) []*gene.Matrix {
	t.Helper()
	rng := randgen.New(seed)
	out := make([]*gene.Matrix, n)
	for i := range out {
		q, _, err := ds.ExtractQuery(rng, 5)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = q
	}
	return out
}

func assertSameResults(t *testing.T, label string, a1 []core.Answer, st1 core.Stats, a2 []core.Answer, st2 core.Stats) {
	t.Helper()
	if len(a1) != len(a2) {
		t.Fatalf("%s: %d answers vs %d", label, len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i].Source != a2[i].Source || a1[i].Prob != a2[i].Prob {
			t.Fatalf("%s: answer %d differs: (%d, %v) vs (%d, %v)",
				label, i, a1[i].Source, a1[i].Prob, a2[i].Source, a2[i].Prob)
		}
		if len(a1[i].Edges) != len(a2[i].Edges) {
			t.Fatalf("%s: answer %d edge count differs", label, i)
		}
		for j := range a1[i].Edges {
			if a1[i].Edges[j] != a2[i].Edges[j] {
				t.Fatalf("%s: answer %d edge %d differs", label, i, j)
			}
		}
	}
	if st1.IOCost != st2.IOCost {
		t.Fatalf("%s: IOCost %d vs %d", label, st1.IOCost, st2.IOCost)
	}
	if st1.CandidateMatrices != st2.CandidateMatrices || st1.CandidateGenes != st2.CandidateGenes ||
		st1.MatricesPrunedL5 != st2.MatricesPrunedL5 || st1.Answers != st2.Answers ||
		st1.QueryVertices != st2.QueryVertices || st1.QueryEdges != st2.QueryEdges {
		t.Fatalf("%s: stats differ:\n%+v\n%+v", label, st1, st2)
	}
}

// TestParallelMatchesSequentialAnalytic: with the analytic estimator there
// is no RNG, so parallel refinement must reproduce the sequential answers,
// probabilities, and I/O accounting exactly.
func TestParallelMatchesSequentialAnalytic(t *testing.T) {
	ds, idx := buildConcFixture(t, 41)
	mkProc := func(workers int) *core.Processor {
		proc, err := core.NewProcessor(idx, core.Params{
			Gamma: 0.5, Alpha: 0.3, Seed: 5, Analytic: true, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return proc
	}
	seq := mkProc(1)
	par := mkProc(4)
	for i, q := range extractQueries(t, ds, 5, 77) {
		a1, st1, err := seq.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		a2, st2, err := par.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("query %d", i), a1, st1, a2, st2)
	}
}

// TestParallelMCScheduleIndependent: Monte Carlo results under Workers > 1
// are a pure function of (Seed, work unit), so runs with different worker
// counts — and repeated runs — must agree bit-for-bit.
func TestParallelMCScheduleIndependent(t *testing.T) {
	ds, idx := buildConcFixture(t, 43)
	run := func(workers int) ([]core.Answer, core.Stats) {
		proc, err := core.NewProcessor(idx, core.Params{
			Gamma: 0.5, Alpha: 0.3, Samples: 32, Seed: 9, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		q := extractQueries(t, ds, 1, 55)[0]
		a, st, err := proc.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return a, st
	}
	a2, st2 := run(2)
	a2b, st2b := run(2)
	assertSameResults(t, "workers=2 repeat", a2, st2, a2b, st2b)
	a8, st8 := run(8)
	assertSameResults(t, "workers=2 vs workers=8", a2, st2, a8, st8)
}

// TestSequentialUnchangedByWorkersFlag: Workers=0 and Workers=1 both run
// every work unit inline and must agree exactly (MC included).
func TestSequentialUnchangedByWorkersFlag(t *testing.T) {
	ds, idx := buildConcFixture(t, 47)
	run := func(workers int) ([]core.Answer, core.Stats) {
		proc, err := core.NewProcessor(idx, core.Params{
			Gamma: 0.5, Alpha: 0.3, Samples: 32, Seed: 3, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		q := extractQueries(t, ds, 1, 21)[0]
		a, st, err := proc.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return a, st
	}
	a0, st0 := run(0)
	a1, st1 := run(1)
	assertSameResults(t, "workers=0 vs workers=1", a0, st0, a1, st1)
}

func TestQueryContextCancellation(t *testing.T) {
	ds, idx := buildConcFixture(t, 53)
	for _, workers := range []int{1, 4} {
		proc, err := core.NewProcessor(idx, core.Params{
			Gamma: 0.5, Alpha: 0.3, Seed: 5, Analytic: true, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		q := extractQueries(t, ds, 1, 13)[0]
		if _, _, err := proc.QueryContext(ctx, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestAnalyticInferenceCancellation: analytic query inference scores
// every pair of a query's genes, so it takes the query's context. A wide
// query under a cancelled context fails in inference with the context's
// error instead of scoring all its pairs first.
func TestAnalyticInferenceCancellation(t *testing.T) {
	rng := randgen.New(61)
	ids := make([]gene.ID, 400)
	cols := make([][]float64, len(ids))
	for j := range cols {
		ids[j] = gene.ID(j)
		cols[j] = []float64{rng.Gaussian(0, 1), rng.Gaussian(0, 1), rng.Gaussian(0, 1)}
	}
	mq, err := gene.NewMatrix(0, ids, cols)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, _, err := core.InferQuery(ctx, mq, core.Params{Gamma: 0.4, Alpha: 0.3, Analytic: true})
	if !errors.Is(err, context.Canceled) || g != nil {
		t.Fatalf("cancelled analytic inference returned a graph %v, err = %v", g, err)
	}
}

func TestBaselineLinearScanCancellation(t *testing.T) {
	ds, _ := buildConcFixture(t, 59)
	params := core.Params{Gamma: 0.5, Alpha: 0.3, Seed: 5, Analytic: true}
	q := extractQueries(t, ds, 1, 17)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	ls, err := core.NewLinearScan(ds.DB, params)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ls.QueryContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("linear scan: err = %v, want context.Canceled", err)
	}

	bl, err := core.BuildBaseline(ds.DB, params)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bl.QueryContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("baseline: err = %v, want context.Canceled", err)
	}
}
