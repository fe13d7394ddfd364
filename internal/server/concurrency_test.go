package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

func queryReqFor(db interface{ Col(int) []float64 }, gamma, alpha float64, extra ParamsJSON) QueryRequest {
	extra.Gamma, extra.Alpha = gamma, alpha
	return QueryRequest{
		Genes:   []string{"A", "B", "C"},
		Columns: [][]float64{db.Col(0), db.Col(1), db.Col(2)},
		Params:  extra,
	}
}

func decodeQuery(t *testing.T, rec *httptest.ResponseRecorder) QueryResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestConcurrentQueriesIndependentAccounting: concurrent requests must not
// serialize, and each response's ioPages must equal what the same query
// reports when run alone — per-request accounting, no shared counters.
// The concurrent runs all find a warm edge-probability cache, and a cached
// edge reads no pages, so the serial reference is each query's second
// (warm) run; the first, cold run must cost strictly more pages for the
// same answers.
func TestConcurrentQueriesIndependentAccounting(t *testing.T) {
	s, _, db := fixture(t)
	reqs := []QueryRequest{
		queryReqFor(db.BySource(3), 0.6, 0.4, ParamsJSON{Seed: 3, Analytic: true}),
		queryReqFor(db.BySource(7), 0.7, 0.5, ParamsJSON{Seed: 4, Analytic: true}),
	}
	// Serial reference runs: cold, then warm.
	cold := make([]QueryResponse, len(reqs))
	for i, r := range reqs {
		cold[i] = decodeQuery(t, postJSON(t, s, "/query", r))
	}
	want := make([]QueryResponse, len(reqs))
	for i, r := range reqs {
		want[i] = decodeQuery(t, postJSON(t, s, "/query", r))
		if want[i].Stats.IOCost >= cold[i].Stats.IOCost {
			t.Errorf("query %d: warm repeat read %d pages, cold run %d (cached edges must read none)",
				i, want[i].Stats.IOCost, cold[i].Stats.IOCost)
		}
		if !reflect.DeepEqual(want[i].Answers, cold[i].Answers) {
			t.Errorf("query %d: warm repeat answers %+v, cold run %+v", i, want[i].Answers, cold[i].Answers)
		}
	}
	const rounds = 8
	var wg sync.WaitGroup
	got := make([]QueryResponse, len(reqs)*rounds)
	for round := 0; round < rounds; round++ {
		for i, r := range reqs {
			wg.Add(1)
			go func(slot int, r QueryRequest) {
				defer wg.Done()
				got[slot] = decodeQuery(t, postJSON(t, s, "/query", r))
			}(round*len(reqs)+i, r)
		}
	}
	wg.Wait()
	for round := 0; round < rounds; round++ {
		for i := range reqs {
			g, w := got[round*len(reqs)+i], want[i]
			if g.Stats.IOCost != w.Stats.IOCost {
				t.Errorf("round %d query %d: ioPages = %d, serial run %d (accounting polluted by concurrency)",
					round, i, g.Stats.IOCost, w.Stats.IOCost)
			}
			if len(g.Answers) != len(w.Answers) {
				t.Errorf("round %d query %d: %d answers, serial run %d",
					round, i, len(g.Answers), len(w.Answers))
			}
		}
	}
}

func TestMaxConcurrentShedsWith503(t *testing.T) {
	s, _, db := fixture(t)
	s.MaxConcurrent = 1
	// Occupy the only slot.
	release, ok := s.acquire(httptest.NewRecorder())
	if !ok {
		t.Fatal("could not take the first slot")
	}
	req := queryReqFor(db.BySource(3), 0.6, 0.4, ParamsJSON{Seed: 3, Analytic: true})
	rec := postJSON(t, s, "/query", req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("at capacity status = %d, want 503 (body %s)", rec.Code, rec.Body)
	}
	release()
	rec = postJSON(t, s, "/query", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("after release status = %d (body %s)", rec.Code, rec.Body)
	}
}

func TestQueryTimeoutReturns503(t *testing.T) {
	s, _, db := fixture(t)
	s.QueryTimeout = time.Nanosecond // expired before the query starts
	req := queryReqFor(db.BySource(3), 0.6, 0.4, ParamsJSON{Seed: 3, Analytic: true})
	rec := postJSON(t, s, "/query", req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out status = %d, want 503 (body %s)", rec.Code, rec.Body)
	}
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
		t.Fatalf("timeout error body = %s", rec.Body)
	}
}

// TestWorkersParam: a parallel request must return the same answers as the
// sequential default under the analytic estimator.
func TestWorkersParam(t *testing.T) {
	s, _, db := fixture(t)
	seqReq := queryReqFor(db.BySource(3), 0.6, 0.4, ParamsJSON{Seed: 3, Analytic: true})
	parReq := queryReqFor(db.BySource(3), 0.6, 0.4, ParamsJSON{Seed: 3, Analytic: true, Workers: 4})
	seq := decodeQuery(t, postJSON(t, s, "/query", seqReq))
	par := decodeQuery(t, postJSON(t, s, "/query", parReq))
	if len(seq.Answers) != len(par.Answers) {
		t.Fatalf("workers=4 answers = %d, sequential %d", len(par.Answers), len(seq.Answers))
	}
	for i := range seq.Answers {
		if seq.Answers[i].Source != par.Answers[i].Source || seq.Answers[i].Prob != par.Answers[i].Prob {
			t.Errorf("answer %d differs between workers=0 and workers=4", i)
		}
	}
}

// TestCacheCountersOnWire: a repeated Monte Carlo request is served from
// the shared edge-probability cache and says so in its stats.
func TestCacheCountersOnWire(t *testing.T) {
	s, _, db := fixture(t)
	req := queryReqFor(db.BySource(3), 0.6, 0.4, ParamsJSON{Seed: 9, Samples: 32})
	first := decodeQuery(t, postJSON(t, s, "/query", req))
	if first.Stats.CacheHits != 0 {
		t.Errorf("first request reported %d hits on a cold cache", first.Stats.CacheHits)
	}
	if first.Stats.CacheMisses == 0 {
		t.Fatalf("first MC request reported no cache lookups: %+v", first.Stats)
	}
	second := decodeQuery(t, postJSON(t, s, "/query", req))
	if second.Stats.CacheHits == 0 {
		t.Errorf("repeat request reported no cache hits: %+v", second.Stats)
	}
}
