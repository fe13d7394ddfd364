package plan

import (
	"testing"

	"github.com/imgrn/imgrn/internal/stats"
)

// TestResolveCarriesRequestVerbatim pins the identity property the golden
// suites rely on: without an accuracy request, Resolve passes the sample
// count and every stage switch through unchanged, so applying the default
// plan back onto the params it came from changes nothing.
func TestResolveCarriesRequestVerbatim(t *testing.T) {
	reqs := []Request{
		{Pivot: true, Signatures: true, Markov: true, Batch: true},
		{Samples: 48, Pivot: true, Signatures: true, Markov: true, Batch: true},
		{Samples: 7, Pivot: false, Signatures: true, Markov: false, Batch: true},
		{Samples: 0, Pivot: true, Signatures: false, Markov: true, Batch: false},
	}
	for _, req := range reqs {
		pl, err := Resolve(req)
		if err != nil {
			t.Fatalf("Resolve(%+v): %v", req, err)
		}
		if pl.Samples != req.Samples || pl.Pivot != req.Pivot ||
			pl.Signatures != req.Signatures || pl.Markov != req.Markov ||
			pl.Batch != req.Batch {
			t.Errorf("Resolve(%+v) = %+v, not verbatim", req, pl)
		}
		if pl.Adaptive || pl.FromAccuracy || len(pl.Skipped) != 0 {
			t.Errorf("Resolve(%+v) marked adaptive: %+v", req, pl)
		}
		if pl.Mode() != "fixed" {
			t.Errorf("Mode() = %q, want fixed", pl.Mode())
		}
	}
}

// TestResolveAccuracyProperty checks the Lemma-2 contract: a requested
// (ε, δ) yields exactly R = SampleSize(ε, δ), so R is trivially ≥ the
// bound, and R is monotone non-increasing in both parameters (tighter
// accuracy or confidence can only demand more samples).
func TestResolveAccuracyProperty(t *testing.T) {
	epsGrid := []float64{0.05, 0.1, 0.2, 0.5}
	deltaGrid := []float64{0.01, 0.05, 0.1, 0.5}
	for _, eps := range epsGrid {
		for _, delta := range deltaGrid {
			pl, err := Resolve(Request{Eps: eps, Delta: delta, Samples: 48,
				Pivot: true, Signatures: true, Markov: true, Batch: true})
			if err != nil {
				t.Fatalf("Resolve(eps=%v, delta=%v): %v", eps, delta, err)
			}
			want := stats.SampleSize(eps, delta)
			if pl.Samples != want {
				t.Errorf("Resolve(eps=%v, delta=%v).Samples = %d, want %d", eps, delta, pl.Samples, want)
			}
			if !pl.FromAccuracy || pl.Eps != eps || pl.Delta != delta {
				t.Errorf("accuracy provenance lost: %+v", pl)
			}
			if pl.EffectiveSamples() < want {
				t.Errorf("EffectiveSamples %d < Lemma-2 bound %d", pl.EffectiveSamples(), want)
			}
		}
	}
	// Monotonicity across each grid axis.
	r := func(eps, delta float64) int {
		pl, err := Resolve(Request{Eps: eps, Delta: delta})
		if err != nil {
			t.Fatal(err)
		}
		return pl.Samples
	}
	for _, delta := range deltaGrid {
		for i := 1; i < len(epsGrid); i++ {
			if r(epsGrid[i], delta) > r(epsGrid[i-1], delta) {
				t.Errorf("R not monotone in eps at delta=%v: R(%v)=%d > R(%v)=%d",
					delta, epsGrid[i], r(epsGrid[i], delta), epsGrid[i-1], r(epsGrid[i-1], delta))
			}
		}
	}
	for _, eps := range epsGrid {
		for i := 1; i < len(deltaGrid); i++ {
			if r(eps, deltaGrid[i]) > r(eps, deltaGrid[i-1]) {
				t.Errorf("R not monotone in delta at eps=%v", eps)
			}
		}
	}
	// The acceptance anchor: (0.1, 0.05) must land on the documented 1107.
	if got := r(0.1, 0.05); got != 1107 {
		t.Errorf("R(0.1, 0.05) = %d, want 1107", got)
	}
}

// TestResolveRejectsBadAccuracy: the planner surfaces invalid (ε, δ) as
// an error, never a panic — that is what lets the HTTP layer answer 400.
func TestResolveRejectsBadAccuracy(t *testing.T) {
	bad := []Request{
		{Eps: -0.1, Delta: 0.05},
		{Eps: 0.1, Delta: 0},  // delta unset while eps is
		{Eps: 0, Delta: 0.05}, // eps unset while delta is
		{Eps: 0.1, Delta: 1.5},
		{Eps: 0.1, Delta: -1},
		// A Lemma-2 bound that overflows int, and sample counts above the
		// cap however they are asked for: the plan must not carry a count
		// the estimators would silently replace.
		{Eps: 1e-9, Delta: 0.05},
		{Eps: 0.003, Delta: 0.05},
		{Samples: stats.MaxSamples + 1},
	}
	for _, req := range bad {
		if pl, err := Resolve(req); err == nil {
			t.Errorf("Resolve(%+v) = %+v: want error", req, pl)
		}
	}
	// An accuracy request overrides Samples, so only the bound is checked.
	if _, err := Resolve(Request{Eps: 0.1, Delta: 0.05, Samples: stats.MaxSamples + 1}); err != nil {
		t.Errorf("Resolve with an overridden Samples: %v", err)
	}
	if _, err := Resolve(Request{Samples: stats.MaxSamples}); err != nil {
		t.Errorf("Resolve(Samples = MaxSamples): %v", err)
	}
}

// defaultRequest is the all-stages-on fixed pipeline request.
func defaultRequest() Request {
	return Request{Pivot: true, Signatures: true, Markov: true, Batch: true}
}

// TestPlannerWarmup: before MinQueries observations every plan is the
// fixed Resolve plan, no matter how damning the feedback looks.
func TestPlannerWarmup(t *testing.T) {
	p := NewPlanner(Options{MinQueries: 8})
	// Feedback that would justify skipping everything: Lemma 5 never
	// prunes, the filters never fire, the cache absorbs all verification.
	fb := Feedback{
		Candidates: 100, PrunedL5: 0,
		MarkovSeconds: 1, MonteCarloSeconds: 0.0001,
		PointPairsChecked: 1000, PointPairsPruned: 0,
		NodePairsVisited: 1000, NodePairsPruned: 0,
		CacheHits: 99, CacheMisses: 1,
	}
	for i := 0; i < 7; i++ {
		pl, err := p.Plan(defaultRequest())
		if err != nil {
			t.Fatal(err)
		}
		if pl.Adaptive {
			t.Fatalf("plan adaptive after %d < MinQueries observations: %+v", i, pl)
		}
		p.Observe(fb)
	}
	p.Observe(fb)
	pl, err := p.Plan(defaultRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Adaptive {
		t.Fatalf("plan still fixed after warm-up with dead-stage feedback: %+v", pl)
	}
}

// TestPlannerSkipRules drives each decision rule across its threshold.
func TestPlannerSkipRules(t *testing.T) {
	warm := func(p *Planner, fb Feedback) {
		for i := 0; i < 40; i++ {
			p.Observe(fb)
		}
	}
	skipped := func(pl *Plan, stage string) bool {
		for _, s := range pl.Skipped {
			if s == stage {
				return true
			}
		}
		return false
	}

	t.Run("markov skipped when it cannot pay", func(t *testing.T) {
		p := NewPlanner(Options{})
		warm(p, Feedback{Candidates: 100, PrunedL5: 0,
			MarkovSeconds: 1, MonteCarloSeconds: 0.001})
		pl, err := p.Plan(defaultRequest())
		if err != nil {
			t.Fatal(err)
		}
		if pl.Markov || !skipped(pl, "markov_prune") {
			t.Errorf("dead Lemma 5 not skipped: %+v", pl)
		}
	})

	t.Run("markov kept while it pays", func(t *testing.T) {
		p := NewPlanner(Options{})
		// Lemma 5 removes 90% of candidates at 1% of verification cost.
		warm(p, Feedback{Candidates: 100, PrunedL5: 90,
			MarkovSeconds: 0.001, MonteCarloSeconds: 1})
		pl, err := p.Plan(defaultRequest())
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Markov || pl.Adaptive {
			t.Errorf("paying Lemma 5 dropped: %+v", pl)
		}
	})

	t.Run("pivot skipped on dead observed selectivity", func(t *testing.T) {
		p := NewPlanner(Options{})
		warm(p, Feedback{Candidates: 10, PrunedL5: 5,
			MarkovSeconds: 0.001, MonteCarloSeconds: 0.01,
			PointPairsChecked: 10000, PointPairsPruned: 1})
		pl, err := p.Plan(defaultRequest())
		if err != nil {
			t.Fatal(err)
		}
		if pl.Pivot || !skipped(pl, "pivot_prune") {
			t.Errorf("dead pivot pruning not skipped: %+v", pl)
		}
	})

	t.Run("pivot prior from section-4 cost when unobserved", func(t *testing.T) {
		p := NewPlanner(Options{})
		// Feedback with no leaf pairs at all: only the §4 prior speaks.
		warm(p, Feedback{Candidates: 10, PrunedL5: 5,
			MarkovSeconds: 0.001, MonteCarloSeconds: 0.01})
		// Vacuous pivots (per-vector cost at the max of 4) → prior 0 → skip.
		pl, err := p.Plan(Request{Pivot: true, Signatures: true, Markov: true, Batch: true,
			MeanPivotCost: 3.999})
		if err != nil {
			t.Fatal(err)
		}
		if pl.Pivot {
			t.Errorf("vacuous-pivot index kept pivot pruning: %+v", pl)
		}
		// Unknown index (MeanPivotCost 0) → never skip on no evidence.
		pl, err = p.Plan(defaultRequest())
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Pivot {
			t.Errorf("unknown index skipped pivot pruning on no evidence: %+v", pl)
		}
	})

	t.Run("signatures skipped on dead node selectivity", func(t *testing.T) {
		p := NewPlanner(Options{})
		warm(p, Feedback{Candidates: 10, PrunedL5: 5,
			MarkovSeconds: 0.001, MonteCarloSeconds: 0.01,
			NodePairsVisited: 10000, NodePairsPruned: 1})
		pl, err := p.Plan(defaultRequest())
		if err != nil {
			t.Fatal(err)
		}
		if pl.Signatures || !skipped(pl, "signature") {
			t.Errorf("dead signature filters not skipped: %+v", pl)
		}
	})

	t.Run("batch kernel demoted for narrow queries", func(t *testing.T) {
		p := NewPlanner(Options{})
		warm(p, Feedback{Candidates: 10, PrunedL5: 5,
			MarkovSeconds: 0.001, MonteCarloSeconds: 0.01})
		req := defaultRequest()
		req.QueryGenes = 2
		pl, err := p.Plan(req)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Batch || !skipped(pl, "batch_kernel") {
			t.Errorf("2-gene query kept the batch kernel: %+v", pl)
		}
		req.QueryGenes = 3
		pl, err = p.Plan(req)
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Batch {
			t.Errorf("3-gene query lost the batch kernel: %+v", pl)
		}
	})
}

// TestPlannerSnapshot: skip decisions are counted and the cost model is
// observable.
func TestPlannerSnapshot(t *testing.T) {
	p := NewPlanner(Options{MinQueries: 1})
	p.Observe(Feedback{Candidates: 100, PrunedL5: 0,
		MarkovSeconds: 1, MonteCarloSeconds: 0.001})
	for i := 0; i < 3; i++ {
		if _, err := p.Plan(defaultRequest()); err != nil {
			t.Fatal(err)
		}
	}
	snap := p.Snapshot()
	if snap.Queries != 1 {
		t.Errorf("Queries = %d, want 1", snap.Queries)
	}
	if snap.Skips["markov_prune"] != 3 {
		t.Errorf("Skips[markov_prune] = %d, want 3", snap.Skips["markov_prune"])
	}
	if snap.Cost.MarkovPerCandidate <= 0 {
		t.Errorf("cost model not populated: %+v", snap.Cost)
	}
}

// TestPlannerCacheDensityPrior: with no hit/miss observations the modeled
// cache hit rate falls back to entries/(entries+vectors).
func TestPlannerCacheDensityPrior(t *testing.T) {
	p := NewPlanner(Options{MinQueries: 1})
	p.Observe(Feedback{Candidates: 10, PrunedL5: 5,
		MarkovSeconds: 0.001, MonteCarloSeconds: 0.01})
	req := defaultRequest()
	req.CacheEntries = 300
	req.DBVectors = 700
	pl, err := p.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pl.Cost.CacheHitRate, 0.3; got != want {
		t.Errorf("CacheHitRate prior = %v, want %v", got, want)
	}
}
