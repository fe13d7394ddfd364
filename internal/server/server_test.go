package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/shard"
)

// fixture builds a server over a small database with a planted module on
// genes named A, B, C present in every source.
func fixture(t *testing.T) (*Server, *gene.Catalog, *gene.Database) {
	t.Helper()
	rng := randgen.New(1)
	cat := gene.NewCatalog()
	idA, idB, idC := cat.Intern("A"), cat.Intern("B"), cat.Intern("C")
	db := gene.NewDatabase()
	for src := 0; src < 12; src++ {
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
		m, err := gene.NewMatrix(src,
			[]gene.ID{idA, idB, idC, gene.ID(100 + src)},
			[][]float64{mk(1, 0.1), mk(0.9, 0.2), mk(-0.9, 0.2), mk(0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := index.Build(db, index.Options{D: 2, Samples: 24, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return New(shard.FromIndex(idx), cat), cat, db
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	s, _, _ := fixture(t)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestStats(t *testing.T) {
	s, _, db := fixture(t)
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", rec.Code, rec.Body)
	}
	var resp StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Matrices != db.Len() || resp.Vectors != db.Len()*4 {
		t.Errorf("stats = %+v", resp)
	}
	if rec2 := postJSON(t, s, "/stats", nil); rec2.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats status = %d", rec2.Code)
	}
}

func TestQueryEndpoint(t *testing.T) {
	s, _, db := fixture(t)
	// Use source 3's own module columns as the query matrix.
	m := db.BySource(3)
	req := QueryRequest{
		Genes:   []string{"A", "B", "C"},
		Columns: [][]float64{m.Col(0), m.Col(1), m.Col(2)},
		Params:  ParamsJSON{Gamma: 0.6, Alpha: 0.4, Seed: 3, Analytic: true},
	}
	rec := postJSON(t, s, "/query", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.QueryVertices != 3 || resp.Stats.QueryEdges == 0 {
		t.Errorf("stats = %+v", resp.Stats)
	}
	if len(resp.Answers) < 10 {
		t.Errorf("answers = %d, want most of the 12 sources", len(resp.Answers))
	}
	for _, a := range resp.Answers {
		if a.Prob <= 0.4 {
			t.Errorf("answer below alpha: %+v", a)
		}
		if len(a.Genes) != 3 || a.Genes[0] != "A" {
			t.Errorf("gene names not resolved: %+v", a.Genes)
		}
	}
}

func TestQueryGraphEndpointWithTopK(t *testing.T) {
	s, _, _ := fixture(t)
	req := GraphQueryRequest{
		Genes: []string{"A", "B"},
		Edges: []EdgeJSON{{S: 0, T: 1, Prob: 0.9}},
		Params: ParamsJSON{
			Gamma: 0.6, Alpha: 0.5, Analytic: true, TopK: 4,
		},
	}
	rec := postJSON(t, s, "/query-graph", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 4 {
		t.Fatalf("topK answers = %d, want 4", len(resp.Answers))
	}
	for i := 1; i < len(resp.Answers); i++ {
		if resp.Answers[i].Prob > resp.Answers[i-1].Prob {
			t.Error("topK answers not ranked")
		}
	}
}

// TestTopKResponseTies: the /query-graph top-k trim ranks by probability
// descending with ties toward the smaller source, and the stats block
// counts the answers returned.
func TestTopKResponseTies(t *testing.T) {
	s, _, _ := fixture(t)
	answers := []core.Answer{ // source-ascending, as the engine returns them
		{Source: 1, Prob: 0.5}, {Source: 2, Prob: 0.9}, {Source: 3, Prob: 0.5},
		{Source: 4, Prob: 0.9}, {Source: 5, Prob: 0.7}, {Source: 6, Prob: 0.5},
	}
	resp := s.response(answers, core.Stats{Answers: len(answers)}, ParamsJSON{TopK: 5}, nil)
	var got []int
	for _, a := range resp.Answers {
		got = append(got, a.Source)
	}
	if want := []int{2, 4, 5, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("top-5 sources = %v, want %v", got, want)
	}
	if resp.Stats.Answers != 5 {
		t.Errorf("stats.answers = %d, want 5 (answers returned)", resp.Stats.Answers)
	}
}

func TestQueryBadRequests(t *testing.T) {
	s, _, _ := fixture(t)
	cases := []struct {
		name string
		body any
	}{
		{"unknown gene", QueryRequest{Genes: []string{"NOPE?"},
			Columns: [][]float64{{1, 2}}, Params: ParamsJSON{Gamma: 0.5, Alpha: 0.5}}},
		{"count mismatch", QueryRequest{Genes: []string{"A", "B"},
			Columns: [][]float64{{1, 2}}, Params: ParamsJSON{Gamma: 0.5, Alpha: 0.5}}},
		{"ragged columns", QueryRequest{Genes: []string{"A", "B"},
			Columns: [][]float64{{1, 2}, {1}}, Params: ParamsJSON{Gamma: 0.5, Alpha: 0.5}}},
		{"bad gamma", QueryRequest{Genes: []string{"A"},
			Columns: [][]float64{{1, 2}}, Params: ParamsJSON{Gamma: 1.5, Alpha: 0.5}}},
	}
	for _, c := range cases {
		if rec := postJSON(t, s, "/query", c.body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d body %s", c.name, rec.Code, rec.Body)
		}
	}
	// Malformed JSON and unknown fields.
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader([]byte("{nope")))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON status = %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader([]byte(`{"bogus":1}`)))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown field status = %d", rec.Code)
	}
	// GET on POST endpoint.
	req = httptest.NewRequest(http.MethodGet, "/query", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d", rec.Code)
	}
}

func TestQueryGraphBadEdge(t *testing.T) {
	s, _, _ := fixture(t)
	req := GraphQueryRequest{
		Genes:  []string{"A", "B"},
		Edges:  []EdgeJSON{{S: 0, T: 5, Prob: 0.9}},
		Params: ParamsJSON{Gamma: 0.5, Alpha: 0.5},
	}
	if rec := postJSON(t, s, "/query-graph", req); rec.Code != http.StatusBadRequest {
		t.Errorf("bad edge status = %d", rec.Code)
	}
}

func TestNumericGeneFallback(t *testing.T) {
	s, _, db := fixture(t)
	// Gene 103 exists only in source 3; numeric addressing must work.
	if !db.BySource(3).Has(gene.ID(103)) {
		t.Skip("fixture layout changed")
	}
	req := GraphQueryRequest{
		Genes:  []string{"A", "103"},
		Edges:  nil, // gene-containment query
		Params: ParamsJSON{Gamma: 0.5, Alpha: 0.5, Analytic: true},
	}
	rec := postJSON(t, s, "/query-graph", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Source != 3 {
		t.Errorf("numeric gene query answers = %+v", resp.Answers)
	}
}

func TestClusterEndpoint(t *testing.T) {
	s, _, db := fixture(t)
	rec := postJSON(t, s, "/cluster", ClusterRequest{K: 2, Seed: 9})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", rec.Code, rec.Body)
	}
	var resp ClusterResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Clusters) != 2 {
		t.Fatalf("clusters = %d", len(resp.Clusters))
	}
	total := 0
	for _, c := range resp.Clusters {
		total += len(c.Members)
		found := false
		for _, m := range c.Members {
			if m == c.Medoid {
				found = true
			}
		}
		if !found {
			t.Errorf("medoid %d not among its members", c.Medoid)
		}
	}
	if total != db.Len() {
		t.Errorf("members cover %d of %d sources", total, db.Len())
	}
	// Bad k.
	if rec := postJSON(t, s, "/cluster", ClusterRequest{K: 0}); rec.Code != http.StatusBadRequest {
		t.Errorf("k=0 status = %d", rec.Code)
	}
	if rec := postJSON(t, s, "/cluster", ClusterRequest{K: 999}); rec.Code != http.StatusBadRequest {
		t.Errorf("k too large status = %d", rec.Code)
	}
}

func TestRequestBodyLimit(t *testing.T) {
	s, _, _ := fixture(t)
	s.MaxBodyBytes = 64
	big := QueryRequest{
		Genes:   []string{"A", "B", "C"},
		Columns: [][]float64{make([]float64, 100), make([]float64, 100), make([]float64, 100)},
		Params:  ParamsJSON{Gamma: 0.5, Alpha: 0.5},
	}
	if rec := postJSON(t, s, "/query", big); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized body status = %d", rec.Code)
	}
}

func TestUnknownPath(t *testing.T) {
	s, _, _ := fixture(t)
	req := httptest.NewRequest(http.MethodGet, "/nope", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown path status = %d", rec.Code)
	}
}
