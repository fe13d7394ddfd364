package core_test

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/plan"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/synth"
)

// goldenFixture builds the golden workload: the fixed-seed database and
// index, and its six 5-gene query matrices.
func goldenFixture(t *testing.T) (*index.Index, []*gene.Matrix) {
	t.Helper()
	ds, err := synth.GenerateDatabase(synth.DBParams{N: 120, NMin: 20, NMax: 40, LMin: 20, LMax: 30, Seed: 7, Dist: synth.Gaussian})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(ds.DB, index.Options{D: 2, Samples: 24, Seed: 7, Bits: 512, BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	rng := randgen.New(99)
	queries := make([]*gene.Matrix, 6)
	for i := range queries {
		if queries[i], _, err = ds.ExtractQuery(rng, 5); err != nil {
			t.Fatal(err)
		}
	}
	return idx, queries
}

// kernelPlan is the fixed default plan at R = samples on the given
// inference kernel. Pinning it is how a query selects the scalar kernel.
func kernelPlan(t *testing.T, samples int, batch bool) *plan.Plan {
	t.Helper()
	pl, err := plan.Resolve(plan.Request{Samples: samples, Pivot: true, Signatures: true, Markov: true, Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// goldenFingerprint runs the shared fixed-seed query workload and renders
// the fingerprint compared by the golden tests below.
func goldenFingerprint(t *testing.T, params core.Params) string {
	t.Helper()
	idx, queries := goldenFixture(t)
	proc, err := core.NewProcessor(idx, params)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i, q := range queries {
		a, st, err := proc.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "q%d answers=%d io=%d cand=%d genes=%d l5=%d npv=%d npp=%d ppc=%d ppp=%d qv=%d qe=%d\n",
			i, len(a), st.IOCost, st.CandidateMatrices, st.CandidateGenes, st.MatricesPrunedL5,
			st.NodePairsVisited, st.NodePairsPruned, st.PointPairsChecked, st.PointPairsPruned,
			st.QueryVertices, st.QueryEdges)
		for _, an := range a {
			fmt.Fprintf(&sb, "  src=%d prob=%.17g edges=%d\n", an.Source, an.Prob, len(an.Edges))
		}
	}
	return sb.String()
}

// compareGolden checks got against the named golden file, regenerating it
// when GOLDEN_WRITE=1.
func compareGolden(t *testing.T, file, got string) {
	t.Helper()
	if os.Getenv("GOLDEN_WRITE") == "1" {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden written")
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%s missing; run once with GOLDEN_WRITE=1 to capture", file)
	}
	if got != string(want) {
		t.Errorf("fixed-seed output diverged from golden:\n got:\n%s\nwant:\n%s", got, string(want))
	}
}

// compareGoldenAtWorkers pins params to the golden file at Workers 1, 2
// and 4: one fingerprint per seed, whatever the worker count.
func compareGoldenAtWorkers(t *testing.T, file string, params core.Params) {
	t.Helper()
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := params
			p.Workers = workers
			compareGolden(t, file, goldenFingerprint(t, p))
		})
	}
}

// TestSequentialGoldenFingerprint pins the query path under the scalar
// inference kernel to a fixed-seed fingerprint: answers, probabilities,
// and every Stats counter must stay byte-identical across refactors, at
// every worker count. Regenerate deliberately with GOLDEN_WRITE=1 after
// an intentional algorithm change, and only on the evidence of a
// statistical gate such as TestEdgeStreamEstimatesInLemma2Envelope or
// TestColumnInferenceEstimatesInLemma2Envelope.
func TestSequentialGoldenFingerprint(t *testing.T) {
	compareGoldenAtWorkers(t, "testdata/golden.txt",
		core.Params{Gamma: 0.5, Alpha: 0.4, Samples: 48, Seed: 9, Plan: kernelPlan(t, 48, false)})
}

// TestBatchSequentialGoldenFingerprint pins the batched inference kernel
// (the default) the same way: the kernel consumes the RNG per target
// column instead of per pair, so its fingerprint legitimately differs from
// the scalar one, but it must be just as deterministic.
func TestBatchSequentialGoldenFingerprint(t *testing.T) {
	compareGoldenAtWorkers(t, "testdata/golden_batch.txt",
		core.Params{Gamma: 0.5, Alpha: 0.4, Samples: 48, Seed: 9})
}

// TestGoldenAnswersIndependentOfWorkers: on the golden workload's query
// matrices, Monte Carlo answers — probabilities and edges to the bit —
// and the query graphs behind them are the same at every worker count.
func TestGoldenAnswersIndependentOfWorkers(t *testing.T) {
	idx, queries := goldenFixture(t)
	params := core.Params{Gamma: 0.5, Alpha: 0.4, Samples: 48, Seed: 9}
	answers := 0
	for i, mq := range queries {
		var want string
		for _, workers := range []int{1, 2, 4} {
			p := params
			p.Workers = workers
			proc, err := core.NewProcessor(idx, p)
			if err != nil {
				t.Fatal(err)
			}
			a, st, err := proc.Query(mq)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprint(st.QueryEdges, a)
			if workers == 1 {
				want = got
				answers += len(a)
			} else if got != want {
				t.Errorf("query %d: workers=%d (query edges, answers) %v, workers=1 %v", i, workers, got, want)
			}
		}
	}
	if answers == 0 {
		t.Fatal("the golden workload answered nothing: the comparison is vacuous")
	}
}

// TestQueryGraphIndependentOfWorkers: a Monte Carlo query graph — edge set
// and probabilities to the bit — is a function of (Seed, matrix, R, plan)
// alone, on both inference kernels and both sidednesses. It is the same at
// Workers 1, 2 and 4, and InferQueryGraph (no context) infers the graph
// InferQueryGraphContext does.
func TestQueryGraphIndependentOfWorkers(t *testing.T) {
	idx, queries := goldenFixture(t)
	edges := 0
	for _, batch := range []bool{true, false} {
		for _, oneSided := range []bool{false, true} {
			params := core.Params{Gamma: 0.5, Samples: 48, Seed: 9, OneSided: oneSided,
				Plan: kernelPlan(t, 48, batch)}
			for i, mq := range queries {
				label := fmt.Sprintf("batch=%v oneSided=%v query %d", batch, oneSided, i)
				proc, err := core.NewProcessor(idx, params)
				if err != nil {
					t.Fatal(err)
				}
				want, err := proc.InferQueryGraph(mq)
				if err != nil {
					t.Fatal(err)
				}
				edges += want.NumEdges()
				for _, workers := range []int{1, 2, 4} {
					p := params
					p.Workers = workers
					proc, err := core.NewProcessor(idx, p)
					if err != nil {
						t.Fatal(err)
					}
					got, err := proc.InferQueryGraphContext(context.Background(), mq)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Edges(), want.Edges()) {
						t.Errorf("%s: workers=%d edges %v, InferQueryGraph %v", label, workers, got.Edges(), want.Edges())
					}
				}
			}
		}
	}
	if edges == 0 {
		t.Fatal("no query graph has an edge: the comparison is vacuous")
	}
}
