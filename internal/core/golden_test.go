package core_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/synth"
)

// goldenFingerprint runs the shared fixed-seed query workload and renders
// the fingerprint compared by the golden tests below.
func goldenFingerprint(t *testing.T, params core.Params) string {
	t.Helper()
	ds, err := synth.GenerateDatabase(synth.DBParams{N: 120, NMin: 20, NMax: 40, LMin: 20, LMax: 30, Seed: 7, Dist: synth.Gaussian})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(ds.DB, index.Options{D: 2, Samples: 24, Seed: 7, Bits: 512, BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := core.NewProcessor(idx, params)
	if err != nil {
		t.Fatal(err)
	}
	rng := randgen.New(99)
	var sb strings.Builder
	for i := 0; i < 6; i++ {
		q, _, err := ds.ExtractQuery(rng, 5)
		if err != nil {
			t.Fatal(err)
		}
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

// TestSequentialGoldenFingerprint pins the sequential (Workers <= 1) query
// path to a fixed-seed fingerprint: answers, probabilities, and every
// Stats counter must stay byte-identical across refactors. The batch
// inference kernel is disabled so the scalar reference path is pinned.
// Regenerate deliberately with GOLDEN_WRITE=1 after an intentional
// algorithm change, and only on the evidence of a statistical gate such as
// TestEdgeStreamEstimatesInLemma2Envelope.
func TestSequentialGoldenFingerprint(t *testing.T) {
	got := goldenFingerprint(t, core.Params{Gamma: 0.5, Alpha: 0.4, Samples: 48, Seed: 9,
		DisableBatchInference: true})
	compareGolden(t, "testdata/golden.txt", got)
}

// TestGoldenAnswersIndependentOfWorkers: on the golden workload's query
// graphs, Monte Carlo refinement answers — probabilities and edges to the
// bit — are the same at every worker count, as every estimate draws from
// its edge's own stream.
func TestGoldenAnswersIndependentOfWorkers(t *testing.T) {
	ds, err := synth.GenerateDatabase(synth.DBParams{N: 120, NMin: 20, NMax: 40, LMin: 20, LMax: 30, Seed: 7, Dist: synth.Gaussian})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(ds.DB, index.Options{D: 2, Samples: 24, Seed: 7, Bits: 512, BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{Gamma: 0.5, Alpha: 0.4, Samples: 48, Seed: 9}
	infer, err := core.NewProcessor(idx, params)
	if err != nil {
		t.Fatal(err)
	}
	rng := randgen.New(99)
	answers := 0
	for i := 0; i < 6; i++ {
		mq, _, err := ds.ExtractQuery(rng, 5)
		if err != nil {
			t.Fatal(err)
		}
		q, err := infer.InferQueryGraph(mq)
		if err != nil {
			t.Fatal(err)
		}
		var want []core.Answer
		for _, workers := range []int{1, 2, 4} {
			p := params
			p.Workers, p.Grain = workers, 1
			proc, err := core.NewProcessor(idx, p)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := proc.QueryGraph(q)
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				want = got
				answers += len(got)
			} else if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("query %d: workers=%d answers %v, workers=1 %v", i, workers, got, want)
			}
		}
	}
	if answers == 0 {
		t.Fatal("the golden workload answered nothing: the comparison is vacuous")
	}
}

// TestBatchSequentialGoldenFingerprint pins the batched inference kernel's
// sequential path the same way: the kernel consumes the RNG per target
// column instead of per pair, so its fingerprint legitimately differs from
// the scalar one, but it must be just as deterministic.
func TestBatchSequentialGoldenFingerprint(t *testing.T) {
	got := goldenFingerprint(t, core.Params{Gamma: 0.5, Alpha: 0.4, Samples: 48, Seed: 9})
	compareGolden(t, "testdata/golden_batch.txt", got)
}
