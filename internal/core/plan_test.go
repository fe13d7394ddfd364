package core_test

import (
	"testing"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/stats"
	"github.com/imgrn/imgrn/internal/synth"
)

// TestDefaultPlanGoldenFingerprint pins the planner seam's core contract:
// explicitly resolving the fixed default plan and pinning it on the
// params reproduces the golden fingerprints byte-for-byte, on both the
// scalar (a plan resolved with Batch off) and the batch-kernel suites. A planner regression that perturbs
// the default pipeline (samples, stage set, RNG consumption) fails here
// before it can silently ship.
func TestDefaultPlanGoldenFingerprint(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params core.Params
		golden string
	}{
		{"scalar", core.Params{Gamma: 0.5, Alpha: 0.4, Samples: 48, Seed: 9,
			Plan: kernelPlan(t, 48, false)}, "testdata/golden.txt"},
		{"batch", core.Params{Gamma: 0.5, Alpha: 0.4, Samples: 48, Seed: 9},
			"testdata/golden_batch.txt"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resolved, err := tc.params.ResolvePlan()
			if err != nil {
				t.Fatal(err)
			}
			if resolved.Plan == nil {
				t.Fatal("ResolvePlan left Plan nil")
			}
			if resolved.Plan.Adaptive || resolved.Plan.Mode() != "fixed" {
				t.Fatalf("default plan is not fixed: %+v", resolved.Plan)
			}
			// The golden fixture runs with the pre-resolved params — any
			// difference between "plan applied" and "no planner at all"
			// shows up as a fingerprint diff.
			compareGolden(t, tc.golden, goldenFingerprint(t, resolved))
		})
	}
}

// TestAccuracyChoosesLemma2Samples: a requested (ε, δ) = (0.1, 0.05)
// must make the plan run with exactly R = SampleSize(0.1, 0.05) = 1107
// Monte Carlo samples, and the stats must report that plan.
func TestAccuracyChoosesLemma2Samples(t *testing.T) {
	want := stats.SampleSize(0.1, 0.05)
	if want != 1107 {
		t.Fatalf("SampleSize(0.1, 0.05) = %d, want the documented 1107", want)
	}

	params := core.Params{Gamma: 0.5, Alpha: 0.4, Eps: 0.1, Delta: 0.05, Seed: 3}
	resolved, err := params.ResolvePlan()
	if err != nil {
		t.Fatal(err)
	}
	if resolved.Samples != want {
		t.Errorf("resolved Samples = %d, want %d", resolved.Samples, want)
	}
	if pl := resolved.Plan; pl == nil || !pl.FromAccuracy || pl.Samples != want {
		t.Errorf("plan provenance wrong: %+v", resolved.Plan)
	}

	// End to end on a small database: the executed query must report the
	// accuracy-derived plan in its stats.
	ds, err := synth.GenerateDatabase(synth.DBParams{N: 10, NMin: 8, NMax: 12,
		LMin: 16, LMax: 20, Seed: 11, Dist: synth.Gaussian})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(ds.DB, index.Options{D: 2, Samples: 16, Seed: 11, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := core.NewProcessor(idx, params)
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := ds.ExtractQuery(randgen.New(5), 4)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := proc.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.Plan == nil {
		t.Fatal("query stats carry no plan")
	}
	if st.Plan.EffectiveSamples() != want || !st.Plan.FromAccuracy {
		t.Errorf("stats plan = %+v, want FromAccuracy with R=%d", st.Plan, want)
	}
	if st.Plan.Eps != 0.1 || st.Plan.Delta != 0.05 {
		t.Errorf("stats plan lost the accuracy request: %+v", st.Plan)
	}
}

// TestValidateRejectsBadAccuracy: invalid (Eps, Delta) surface as a
// Validate error — the route to an HTTP 400 — never a panic.
func TestValidateRejectsBadAccuracy(t *testing.T) {
	for _, c := range []struct{ eps, delta float64 }{
		{-0.1, 0.05}, {0.1, 0}, {0, 0.05}, {0.1, 1}, {0.1, -2},
	} {
		p := core.Params{Gamma: 0.5, Alpha: 0.4, Eps: c.eps, Delta: c.delta}
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(eps=%v, delta=%v): want error", c.eps, c.delta)
		}
		if _, err := core.NewProcessor(nil, p); err == nil {
			t.Errorf("NewProcessor(eps=%v, delta=%v): want error", c.eps, c.delta)
		}
	}
	ok := core.Params{Gamma: 0.5, Alpha: 0.4, Eps: 0.1, Delta: 0.05}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate(valid accuracy): %v", err)
	}
}

// TestResolvePlanIdempotent: resolving twice is the same as resolving
// once — the coordinator resolves before the scatter and the processor
// resolves again on each shard.
func TestResolvePlanIdempotent(t *testing.T) {
	p := core.Params{Gamma: 0.5, Alpha: 0.4, Eps: 0.1, Delta: 0.05, Seed: 3}
	once, err := p.ResolvePlan()
	if err != nil {
		t.Fatal(err)
	}
	twice, err := once.ResolvePlan()
	if err != nil {
		t.Fatal(err)
	}
	if once.Plan != twice.Plan {
		t.Error("second resolution replaced the plan pointer")
	}
	if once.Samples != twice.Samples ||
		once.DisablePivotPruning != twice.DisablePivotPruning ||
		once.DisableSignatures != twice.DisableSignatures ||
		once.DisableMarkovPruning != twice.DisableMarkovPruning {
		t.Errorf("resolution not idempotent: %+v vs %+v", once, twice)
	}
}
