package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/imgrn/imgrn/internal/plan"
	"github.com/imgrn/imgrn/internal/stats"
)

// planQueryRequest is the shared accuracy-requesting query fixture.
func planQueryRequest(t *testing.T, s *Server, params ParamsJSON) *httptest.ResponseRecorder {
	t.Helper()
	return postJSON(t, s, "/query-graph", GraphQueryRequest{
		Genes:  []string{"A", "B", "C"},
		Edges:  []EdgeJSON{{S: 0, T: 1, Prob: 0.8}, {S: 1, T: 2, Prob: 0.8}},
		Params: params,
	})
}

// TestQueryBadAccuracy400: an invalid (eps, delta) is a client error —
// the request is answered 400 with a JSON error body, never a panic
// (the old stats.SampleSize path panicked on bad accuracy parameters).
func TestQueryBadAccuracy400(t *testing.T) {
	s, _, _ := fixture(t)
	for _, p := range []ParamsJSON{
		{Gamma: 0.5, Alpha: 0.4, Eps: -0.1, Delta: 0.05},
		{Gamma: 0.5, Alpha: 0.4, Eps: 0.1},           // delta missing
		{Gamma: 0.5, Alpha: 0.4, Delta: 0.05},        // eps missing
		{Gamma: 0.5, Alpha: 0.4, Eps: 0.1, Delta: 1}, // delta at the open bound
		{Gamma: 0.5, Alpha: 0.4, Eps: 0.1, Delta: -2},
	} {
		rec := planQueryRequest(t, s, p)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("params %+v: status = %d body %s, want 400", p, rec.Code, rec.Body)
			continue
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
			t.Errorf("params %+v: no JSON error body: %s", p, rec.Body)
		}
	}
}

// TestQuerySampleCap400: a request whose sample count cannot be honoured
// is refused, on the matrix endpoint the load generators use. Before the
// cap, "eps": 1e-9 overflowed the Lemma-2 bound to a negative count, the
// query ran with the default 192 samples, and the reply still claimed
// fromAccuracy with the requested ε.
func TestQuerySampleCap400(t *testing.T) {
	s, _, db := fixture(t)
	for _, p := range []ParamsJSON{
		{Seed: 3, Eps: 1e-9, Delta: 0.05},
		{Seed: 3, Eps: 0.003, Delta: 0.05},
		{Seed: 3, Samples: stats.MaxSamples + 1},
	} {
		rec := postJSON(t, s, "/query", queryReqFor(db.BySource(3), 0.6, 0.4, p))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "maximum") {
			t.Errorf("params %+v: status = %d body %s, want 400 naming the maximum", p, rec.Code, rec.Body)
		}
	}
	// With a Planner installed the same request is refused the same way.
	s.Planner = plan.NewPlanner(plan.Options{})
	rec := postJSON(t, s, "/query", queryReqFor(db.BySource(3), 0.6, 0.4, ParamsJSON{Seed: 3, Eps: 1e-9, Delta: 0.05}))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("with a planner: status = %d body %s, want 400", rec.Code, rec.Body)
	}
}

// TestQueryPlanBlock: every query's stats carry the "plan" block, and a
// requested (ε, δ) = (0.1, 0.05) provably runs with the Lemma-2 sample
// count R = 1107.
func TestQueryPlanBlock(t *testing.T) {
	s, _, _ := fixture(t)
	rec := planQueryRequest(t, s, ParamsJSON{Gamma: 0.5, Alpha: 0.4, Seed: 3, Eps: 0.1, Delta: 0.05})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	pl := resp.Stats.Plan
	if pl == nil {
		t.Fatal("stats carry no plan block")
	}
	if pl.Samples != 1107 || !pl.FromAccuracy || pl.Eps != 0.1 || pl.Delta != 0.05 {
		t.Errorf("plan = %+v, want fromAccuracy samples=1107", pl)
	}
	if pl.Mode != "fixed" || !pl.PivotPruning || !pl.Signatures || !pl.MarkovPruning || !pl.BatchKernel {
		t.Errorf("default plan not the fixed full pipeline: %+v", pl)
	}

	// Without an accuracy request the plan reports the effective default.
	rec = planQueryRequest(t, s, ParamsJSON{Gamma: 0.5, Alpha: 0.4, Seed: 3, Analytic: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", rec.Code, rec.Body)
	}
	resp = QueryResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Plan == nil || resp.Stats.Plan.FromAccuracy || resp.Stats.Plan.Samples <= 0 {
		t.Errorf("default plan block = %+v", resp.Stats.Plan)
	}
}

// TestAdaptivePlannerLoop: with a Planner installed the server builds
// plans through it (a "plan" span appears in the trace), feeds realized
// stage statistics back, and exposes the imgrn_plan_* metric family.
func TestAdaptivePlannerLoop(t *testing.T) {
	s, _, _ := fixture(t)
	s.Planner = plan.NewPlanner(plan.Options{MinQueries: 2})

	params := ParamsJSON{Gamma: 0.5, Alpha: 0.4, Seed: 3, Analytic: true, Trace: true}
	var resp QueryResponse
	for i := 0; i < 4; i++ {
		rec := planQueryRequest(t, s, params)
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: status = %d body %s", i, rec.Code, rec.Body)
		}
		resp = QueryResponse{}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Planner.Queries(); got != 4 {
		t.Errorf("planner observed %d queries, want 4", got)
	}
	planSpan := false
	for _, sp := range resp.Trace {
		if sp.Stage == "plan" {
			planSpan = true
		}
	}
	if !planSpan {
		t.Errorf("no plan span in trace: %+v", resp.Trace)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		"imgrn_plan_queries_total{mode=\"fixed\"}",
		"imgrn_plan_queries_total{mode=\"adaptive\"}",
		"imgrn_plan_skips_total{stage=\"markov_prune\"}",
		"imgrn_plan_samples",
		"imgrn_plan_stage_cost_nanos{stage=\"monte_carlo\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
