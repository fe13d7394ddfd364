package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/shard"
)

func getRequest(t *testing.T, path string) (*http.Request, *httptest.ResponseRecorder) {
	t.Helper()
	return httptest.NewRequest(http.MethodGet, path, nil), httptest.NewRecorder()
}

// addBody builds a valid /add-matrix payload carrying the fixture's
// planted module so the new source matches module queries.
func addBody(t *testing.T, source int) AddMatrixRequest {
	t.Helper()
	rng := randgen.New(uint64(source) + 400)
	l := 18
	driver := make([]float64, l)
	for i := range driver {
		driver[i] = rng.Gaussian(0, 1)
	}
	mk := func(coef, noise float64) []float64 {
		col := make([]float64, l)
		for i := range col {
			col[i] = coef*driver[i] + noise*rng.Gaussian(0, 1)
		}
		return col
	}
	return AddMatrixRequest{
		Source:  source,
		Genes:   []string{"A", "B", "C"},
		Columns: [][]float64{mk(1, 0.1), mk(0.9, 0.2), mk(-0.9, 0.2)},
	}
}

func TestAddRemoveMatrixEndpoints(t *testing.T) {
	s, _, db := fixture(t)
	n := db.Len()

	// Add a new source; it becomes queryable immediately.
	rec := postJSON(t, s, "/add-matrix", addBody(t, 50))
	if rec.Code != http.StatusOK {
		t.Fatalf("add status = %d body %s", rec.Code, rec.Body)
	}
	var resp MutateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.Source != 50 || resp.Matrices != n+1 {
		t.Errorf("add response = %+v", resp)
	}
	m := db.BySource(3)
	qrec := postJSON(t, s, "/query", QueryRequest{
		Genes:   []string{"A", "B", "C"},
		Columns: [][]float64{m.Col(0), m.Col(1), m.Col(2)},
		Params:  ParamsJSON{Gamma: 0.6, Alpha: 0.4, Seed: 3, Analytic: true},
	})
	if qrec.Code != http.StatusOK {
		t.Fatalf("query status = %d body %s", qrec.Code, qrec.Body)
	}
	var qresp QueryResponse
	if err := json.Unmarshal(qrec.Body.Bytes(), &qresp); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range qresp.Answers {
		if a.Source == 50 {
			found = true
		}
	}
	if !found {
		t.Error("added source not matched by a module query")
	}

	// Duplicate source: 409.
	if rec := postJSON(t, s, "/add-matrix", addBody(t, 50)); rec.Code != http.StatusConflict {
		t.Errorf("duplicate add status = %d, want 409", rec.Code)
	}

	// Remove it again.
	rec = postJSON(t, s, "/remove-matrix", RemoveMatrixRequest{Source: 50})
	if rec.Code != http.StatusOK {
		t.Fatalf("remove status = %d body %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Matrices != n {
		t.Errorf("matrices after remove = %d, want %d", resp.Matrices, n)
	}
	// Removing an absent source: 404.
	if rec := postJSON(t, s, "/remove-matrix", RemoveMatrixRequest{Source: 50}); rec.Code != http.StatusNotFound {
		t.Errorf("absent remove status = %d, want 404", rec.Code)
	}
}

func TestAddMatrixValidation(t *testing.T) {
	s, _, _ := fixture(t)
	// Negative source.
	body := addBody(t, 51)
	body.Source = -1
	if rec := postJSON(t, s, "/add-matrix", body); rec.Code != http.StatusBadRequest {
		t.Errorf("negative source status = %d, want 400", rec.Code)
	}
	// Gene/column count mismatch.
	body = addBody(t, 51)
	body.Columns = body.Columns[:2]
	if rec := postJSON(t, s, "/add-matrix", body); rec.Code != http.StatusBadRequest {
		t.Errorf("column mismatch status = %d, want 400", rec.Code)
	}
	// Unknown gene name.
	body = addBody(t, 51)
	body.Genes = []string{"A", "B", "nosuch"}
	if rec := postJSON(t, s, "/add-matrix", body); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown gene status = %d, want 400", rec.Code)
	}
	// Ragged columns.
	body = addBody(t, 51)
	body.Columns[1] = body.Columns[1][:5]
	if rec := postJSON(t, s, "/add-matrix", body); rec.Code != http.StatusBadRequest {
		t.Errorf("ragged columns status = %d, want 400", rec.Code)
	}
	// GET is not allowed.
	req, rec := getRequest(t, "/add-matrix")
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /add-matrix status = %d, want 405", rec.Code)
	}
	// Bodies over MaxBodyBytes are rejected.
	s.MaxBodyBytes = 64
	if rec := postJSON(t, s, "/add-matrix", addBody(t, 52)); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized body status = %d, want 400", rec.Code)
	}
}

func TestMutationMetrics(t *testing.T) {
	s, _, _ := fixture(t)
	samples := parseExposition(t, scrape(t, s))
	// Pre-seeded at zero before any mutation.
	for _, series := range []string{`imgrn_mutations_total{op="add"}`, `imgrn_mutations_total{op="remove"}`} {
		if v, ok := samples[series]; !ok || v != 0 {
			t.Errorf("pre-seeded %s = %v, %v", series, v, ok)
		}
	}
	if rec := postJSON(t, s, "/add-matrix", addBody(t, 60)); rec.Code != http.StatusOK {
		t.Fatalf("add status = %d", rec.Code)
	}
	if rec := postJSON(t, s, "/remove-matrix", RemoveMatrixRequest{Source: 60}); rec.Code != http.StatusOK {
		t.Fatalf("remove status = %d", rec.Code)
	}
	// A failed mutation is not counted.
	if rec := postJSON(t, s, "/remove-matrix", RemoveMatrixRequest{Source: 60}); rec.Code != http.StatusNotFound {
		t.Fatalf("absent remove status = %d", rec.Code)
	}
	samples = parseExposition(t, scrape(t, s))
	if v := samples[`imgrn_mutations_total{op="add"}`]; v != 1 {
		t.Errorf("mutations{add} = %v, want 1", v)
	}
	if v := samples[`imgrn_mutations_total{op="remove"}`]; v != 1 {
		t.Errorf("mutations{remove} = %v, want 1", v)
	}
	if v := samples[`imgrn_requests_total{endpoint="add-matrix"}`]; v != 1 {
		t.Errorf("requests{add-matrix} = %v, want 1", v)
	}
	if v := samples[`imgrn_shard_mutations{shard="0"}`]; v != 2 {
		t.Errorf("shard_mutations{0} = %v, want 2", v)
	}
}

// shardedFixture builds the fixture database as a P-shard coordinator.
func shardedFixture(t *testing.T, p int) (*Server, *gene.Database) {
	t.Helper()
	_, cat, db := fixture(t)
	coord, err := shard.Build(db, shard.Options{
		NumShards: p,
		Index:     index.Options{D: 2, Samples: 24, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(coord, cat), db
}

// TestShardedServer: a sharded server answers queries, routes mutations,
// and surfaces per-shard counters in /stats and /metrics.
func TestShardedServer(t *testing.T) {
	s, db := shardedFixture(t, 3)

	m := db.BySource(3)
	qreq := QueryRequest{
		Genes:   []string{"A", "B", "C"},
		Columns: [][]float64{m.Col(0), m.Col(1), m.Col(2)},
		Params:  ParamsJSON{Gamma: 0.6, Alpha: 0.4, Seed: 3, Analytic: true},
	}
	rec := postJSON(t, s, "/query", qreq)
	if rec.Code != http.StatusOK {
		t.Fatalf("sharded query status = %d body %s", rec.Code, rec.Body)
	}
	var qresp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qresp); err != nil {
		t.Fatal(err)
	}
	if len(qresp.Answers) < 10 {
		t.Errorf("sharded answers = %d, want most of the 12 sources", len(qresp.Answers))
	}

	// Mutations round-robin across shards; the response names the shard.
	rec = postJSON(t, s, "/add-matrix", addBody(t, 70))
	if rec.Code != http.StatusOK {
		t.Fatalf("sharded add status = %d body %s", rec.Code, rec.Body)
	}
	var mresp MutateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mresp); err != nil {
		t.Fatal(err)
	}
	if mresp.Shard != 12%3 {
		t.Errorf("source 70 placed on shard %d, want %d", mresp.Shard, 12%3)
	}

	// /stats reports the shard breakdown.
	req, srec := getRequest(t, "/stats")
	s.ServeHTTP(srec, req)
	if srec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", srec.Code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(srec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.NumShards != 3 || len(stats.Shards) != 3 {
		t.Fatalf("stats shards = %d/%d, want 3", stats.NumShards, len(stats.Shards))
	}
	sources, queries, mutations := 0, uint64(0), uint64(0)
	for _, sh := range stats.Shards {
		sources += sh.Sources
		queries += sh.Queries
		mutations += sh.Mutations
	}
	if sources != 13 {
		t.Errorf("per-shard sources sum to %d, want 13", sources)
	}
	if queries != 3 {
		t.Errorf("per-shard queries sum to %d, want 3 (one scatter over 3 shards)", queries)
	}
	if mutations != 1 {
		t.Errorf("per-shard mutations sum to %d, want 1", mutations)
	}

	// /metrics carries one series per shard, tracking the same counters.
	samples := parseExposition(t, scrape(t, s))
	var gaugeSources, gaugeQueries float64
	for shardLabel := 0; shardLabel < 3; shardLabel++ {
		label := `{shard="` + string(rune('0'+shardLabel)) + `"}`
		v, ok := samples["imgrn_shard_sources"+label]
		if !ok {
			t.Fatalf("imgrn_shard_sources%s missing", label)
		}
		gaugeSources += v
		gaugeQueries += samples["imgrn_shard_queries"+label]
	}
	if int(gaugeSources) != 13 {
		t.Errorf("shard_sources gauges sum to %v, want 13", gaugeSources)
	}
	if int(gaugeQueries) != 3 {
		t.Errorf("shard_queries gauges sum to %v, want 3", gaugeQueries)
	}
}
