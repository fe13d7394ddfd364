package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// batchFrames decodes an NDJSON /query-batch body into its per-item
// frames and the terminal done frame.
func batchFrames(t *testing.T, rec *httptest.ResponseRecorder) (map[int]BatchFrameJSON, BatchDoneJSON) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	frames := make(map[int]BatchFrameJSON)
	var done BatchDoneJSON
	sawDone := false
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if sawDone {
			t.Fatalf("frame after done: %s", line)
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if _, ok := probe["done"]; ok {
			if err := json.Unmarshal(line, &done); err != nil {
				t.Fatal(err)
			}
			sawDone = true
			continue
		}
		var f BatchFrameJSON
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatal(err)
		}
		if _, dup := frames[f.Index]; dup {
			t.Fatalf("duplicate frame for index %d", f.Index)
		}
		frames[f.Index] = f
	}
	if !sawDone {
		t.Fatal("no terminal done frame")
	}
	return frames, done
}

// TestQueryBatchEndpoint: a mixed matrix/graph batch answers every item
// with the same payload the solo endpoints produce, in NDJSON frames,
// with the batch counters in the terminal frame.
func TestQueryBatchEndpoint(t *testing.T) {
	s, _, db := fixture(t)
	p := ParamsJSON{Gamma: 0.6, Alpha: 0.4, Seed: 3, Analytic: true}
	q3 := queryReqFor(db.BySource(3), 0.6, 0.4, ParamsJSON{Seed: 3, Analytic: true})
	q7 := queryReqFor(db.BySource(7), 0.6, 0.4, ParamsJSON{Seed: 3, Analytic: true})
	gq := GraphQueryRequest{
		Genes:  []string{"A", "B"},
		Edges:  []EdgeJSON{{S: 0, T: 1, Prob: 0.9}},
		Params: p,
	}
	want := []QueryResponse{
		decodeQuery(t, postJSON(t, s, "/query", q3)),
		decodeQuery(t, postJSON(t, s, "/query", q7)),
		decodeQuery(t, postJSON(t, s, "/query-graph", gq)),
	}

	req := BatchRequest{Queries: []BatchQueryJSON{
		{Genes: q3.Genes, Columns: q3.Columns, Params: q3.Params},
		{Genes: q7.Genes, Columns: q7.Columns, Params: q7.Params},
		{Genes: gq.Genes, Edges: gq.Edges, Params: gq.Params},
	}}
	frames, done := batchFrames(t, postJSON(t, s, "/query-batch", req))
	if done.Queries != 3 || done.Errors != 0 {
		t.Fatalf("done frame = %+v", done)
	}
	if len(frames) != 3 {
		t.Fatalf("%d frames for 3 items", len(frames))
	}
	for i, w := range want {
		f, ok := frames[i]
		if !ok {
			t.Fatalf("no frame for item %d", i)
		}
		if f.Error != "" {
			t.Fatalf("item %d error: %s", i, f.Error)
		}
		if len(f.Answers) != len(w.Answers) {
			t.Fatalf("item %d: %d answers, solo endpoint %d", i, len(f.Answers), len(w.Answers))
		}
		for j := range w.Answers {
			if f.Answers[j].Source != w.Answers[j].Source || f.Answers[j].Prob != w.Answers[j].Prob {
				t.Errorf("item %d answer %d differs from solo endpoint", i, j)
			}
		}
		if f.Stats == nil || f.Stats.QueryVertices != w.Stats.QueryVertices {
			t.Errorf("item %d stats = %+v, want vertices %d", i, f.Stats, w.Stats.QueryVertices)
		}
	}
}

// TestQueryBatchItemErrors: a malformed item gets an error frame; its
// siblings are answered normally and the batch succeeds.
func TestQueryBatchItemErrors(t *testing.T) {
	s, _, db := fixture(t)
	good := queryReqFor(db.BySource(3), 0.6, 0.4, ParamsJSON{Seed: 3, Analytic: true})
	req := BatchRequest{Queries: []BatchQueryJSON{
		{Genes: []string{"NOPE?"}, Columns: [][]float64{{1, 2}},
			Params: ParamsJSON{Gamma: 0.5, Alpha: 0.5}},
		{Genes: good.Genes, Columns: good.Columns, Params: good.Params},
		{Genes: []string{"A", "B"}, Params: ParamsJSON{Gamma: 0.5, Alpha: 0.5}},
	}}
	frames, done := batchFrames(t, postJSON(t, s, "/query-batch", req))
	if done.Errors != 2 {
		t.Fatalf("done.Errors = %d, want 2 (%+v)", done.Errors, done)
	}
	if frames[0].Error == "" || !strings.Contains(frames[0].Error, "NOPE?") {
		t.Errorf("item 0 error frame = %+v", frames[0])
	}
	if frames[1].Error != "" || len(frames[1].Answers) == 0 {
		t.Errorf("good sibling failed: %+v", frames[1])
	}
	if frames[2].Error == "" {
		t.Errorf("item without columns or edges accepted: %+v", frames[2])
	}
}

// TestQueryBatchLimits: empty and oversized batches, and the retired
// sharedPerms knob, are rejected up front with 400.
func TestQueryBatchLimits(t *testing.T) {
	s, _, db := fixture(t)
	if rec := postJSON(t, s, "/query-batch", BatchRequest{}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch status = %d", rec.Code)
	}
	s.MaxBatchItems = 2
	q := queryReqFor(db.BySource(3), 0.6, 0.4, ParamsJSON{Analytic: true})
	item := BatchQueryJSON{Genes: q.Genes, Columns: q.Columns, Params: q.Params}
	req := BatchRequest{Queries: []BatchQueryJSON{item, item, item}}
	if rec := postJSON(t, s, "/query-batch", req); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized batch status = %d", rec.Code)
	}
	req.Queries = req.Queries[:2]
	if rec := postJSON(t, s, "/query-batch", req); rec.Code != http.StatusOK {
		t.Errorf("in-limit batch status = %d", rec.Code)
	}
	// The strict decoder refuses a field the endpoint no longer has rather
	// than silently answering in the one remaining mode.
	retired := map[string]any{"queries": req.Queries, "sharedPerms": true}
	if rec := postJSON(t, s, "/query-batch", retired); rec.Code != http.StatusBadRequest ||
		!strings.Contains(rec.Body.String(), "sharedPerms") {
		t.Errorf("sharedPerms request: status = %d body %s", rec.Code, rec.Body)
	}
}

// TestQueryBatchShedCountsItems: against MaxConcurrent a batch counts as
// its item count, so batching cannot bypass the load bound.
func TestQueryBatchShedCountsItems(t *testing.T) {
	s, _, db := fixture(t)
	s.MaxConcurrent = 2
	q := queryReqFor(db.BySource(3), 0.6, 0.4, ParamsJSON{Analytic: true})
	item := BatchQueryJSON{Genes: q.Genes, Columns: q.Columns, Params: q.Params}
	req := BatchRequest{Queries: []BatchQueryJSON{item, item, item}}
	if rec := postJSON(t, s, "/query-batch", req); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("3-item batch at MaxConcurrent=2: status = %d, want 503", rec.Code)
	}
	req.Queries = req.Queries[:2]
	if rec := postJSON(t, s, "/query-batch", req); rec.Code != http.StatusOK {
		t.Fatalf("2-item batch status = %d", rec.Code)
	}
	// A failed claim must release everything it grabbed.
	if rec := postJSON(t, s, "/query", q); rec.Code != http.StatusOK {
		t.Fatalf("solo query after shed batch: status = %d", rec.Code)
	}
}

// TestQueryBatchItemTimeout: QueryTimeout bounds each item, not the
// batch; expired items get error frames while the batch still answers
// 200 with a done frame.
func TestQueryBatchItemTimeout(t *testing.T) {
	s, _, db := fixture(t)
	s.QueryTimeout = time.Nanosecond
	q := queryReqFor(db.BySource(3), 0.6, 0.4, ParamsJSON{Analytic: true})
	item := BatchQueryJSON{Genes: q.Genes, Columns: q.Columns, Params: q.Params}
	req := BatchRequest{Queries: []BatchQueryJSON{item, item}}
	frames, done := batchFrames(t, postJSON(t, s, "/query-batch", req))
	if done.Errors != 2 {
		t.Fatalf("done.Errors = %d, want 2 with 1ns item windows", done.Errors)
	}
	for i := 0; i < 2; i++ {
		if frames[i].Error == "" {
			t.Errorf("item %d did not time out: %+v", i, frames[i])
		}
	}
	s.QueryTimeout = time.Minute
	frames, done = batchFrames(t, postJSON(t, s, "/query-batch", req))
	if done.Errors != 0 || frames[0].Error != "" {
		t.Fatalf("with a real window: %+v / %+v", done, frames[0])
	}
}

// TestQueryBatchMetrics: the imgrn_batch_* family tracks requests,
// items and error frames.
func TestQueryBatchMetrics(t *testing.T) {
	s, _, db := fixture(t)
	q := queryReqFor(db.BySource(3), 0.6, 0.4, ParamsJSON{Analytic: true})
	item := BatchQueryJSON{Genes: q.Genes, Columns: q.Columns, Params: q.Params}
	bad := BatchQueryJSON{Genes: []string{"NOPE?"}, Columns: [][]float64{{1}},
		Params: ParamsJSON{Gamma: 0.5, Alpha: 0.5}}
	batchFrames(t, postJSON(t, s, "/query-batch",
		BatchRequest{Queries: []BatchQueryJSON{item, item, bad}}))
	if got := s.met.batchRequests.Value(); got != 1 {
		t.Errorf("batch requests = %d", got)
	}
	if got := s.met.batchQueries.Value(); got != 3 {
		t.Errorf("batch queries = %d", got)
	}
	if got := s.met.batchItemErrs.Value(); got != 1 {
		t.Errorf("batch item errors = %d", got)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, fam := range []string{
		"imgrn_batch_requests_total 1",
		"imgrn_batch_queries_total 3",
		"imgrn_batch_item_errors_total 1",
		"imgrn_batch_size_count 1",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("/metrics missing %q", fam)
		}
	}
}

// TestQueryBatchSharded: the batch endpoint over a P=3 sharded server
// matches the solo endpoint answer for answer.
func TestQueryBatchSharded(t *testing.T) {
	s, db := shardedFixture(t, 3)
	p := ParamsJSON{Gamma: 0.6, Alpha: 0.4, Seed: 3, Analytic: true, TopK: 4}
	q := queryReqFor(db.BySource(3), 0.6, 0.4, p)
	want := decodeQuery(t, postJSON(t, s, "/query", q))
	req := BatchRequest{Queries: []BatchQueryJSON{
		{Genes: q.Genes, Columns: q.Columns, Params: q.Params},
	}}
	frames, done := batchFrames(t, postJSON(t, s, "/query-batch", req))
	if done.Errors != 0 {
		t.Fatalf("done = %+v", done)
	}
	f := frames[0]
	if len(f.Answers) != len(want.Answers) {
		t.Fatalf("%d answers, solo sharded endpoint %d", len(f.Answers), len(want.Answers))
	}
	for j := range want.Answers {
		if f.Answers[j].Source != want.Answers[j].Source || f.Answers[j].Prob != want.Answers[j].Prob {
			t.Errorf("answer %d differs from solo sharded endpoint", j)
		}
	}
}

// batchVsMutationsRace hammers /query-batch concurrently with
// /add-matrix and /remove-matrix; run under -race this pins the locking
// protocol between the batch scatter and shard mutations.
func batchVsMutationsRace(t *testing.T, s *Server, queries BatchRequest, addSrc int) {
	t.Helper()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			src := addSrc + i%4
			postJSON(t, s, "/add-matrix", addBody(t, src))
			postJSON(t, s, "/remove-matrix", RemoveMatrixRequest{Source: src})
		}
	}()
	for round := 0; round < 6; round++ {
		rec := postJSON(t, s, "/query-batch", queries)
		if rec.Code != http.StatusOK {
			t.Errorf("round %d: status = %d body %s", round, rec.Code, rec.Body)
		}
	}
	close(stop)
	wg.Wait()
}

func TestQueryBatchConcurrentWithMutationsSharded(t *testing.T) {
	s, db := shardedFixture(t, 3)
	q := queryReqFor(db.BySource(3), 0.6, 0.4, ParamsJSON{Seed: 5, Analytic: true})
	item := BatchQueryJSON{Genes: q.Genes, Columns: q.Columns, Params: q.Params}
	batchVsMutationsRace(t, s, BatchRequest{Queries: []BatchQueryJSON{item, item, item}}, 80)
}

func TestQueryBatchConcurrentWithMutationsDurable(t *testing.T) {
	s, st := durableFixture(t, t.TempDir(), testDB(t, 8))
	defer st.Close()
	// The durable fixture has numeric genes (1, 2); query them directly.
	item := BatchQueryJSON{
		Genes:  []string{"1", "2"},
		Edges:  []EdgeJSON{{S: 0, T: 1, Prob: 0.5}},
		Params: ParamsJSON{Gamma: 0.9, Alpha: 0.1, Seed: 5, Analytic: true},
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			src := 90 + i%4
			postJSON(t, s, "/add-matrix", AddMatrixRequest{
				Source: src, Genes: []string{"1", "2"},
				Columns: [][]float64{{1, 2, 3, 4}, {4, 3, 2, 1}},
			})
			postJSON(t, s, "/remove-matrix", RemoveMatrixRequest{Source: src})
		}
	}()
	req := BatchRequest{Queries: []BatchQueryJSON{item, item}}
	for round := 0; round < 6; round++ {
		rec := postJSON(t, s, "/query-batch", req)
		if rec.Code != http.StatusOK {
			t.Errorf("round %d: status = %d body %s", round, rec.Code, rec.Body)
		}
	}
	close(stop)
	wg.Wait()
}

// TestQueryBatchOutOfRangeGeneLabels: resolveGenes accepts any numeric
// label, so a batch item may name a negative gene or 2³¹−1 as the neighbor
// of a catalogued one. The batch descent used to index a dense table with
// the raw ID (a panic for -11, a 16 GiB allocation for 2147483647); each
// such item must come back with no answers and no error, exactly like
// /query for the same request.
func TestQueryBatchOutOfRangeGeneLabels(t *testing.T) {
	s, _, db := fixture(t)
	m := db.BySource(3)
	p := ParamsJSON{Gamma: 0.6, Alpha: 0.4, Seed: 3, Analytic: true}
	var req BatchRequest
	for _, genes := range [][]string{
		{"A", "-11"}, {"-11", "A"}, {"A", "2147483647"}, {"2147483647", "A"},
	} {
		// Columns A and B of one source correlate strongly, so the inferred
		// query graph has the edge that sends the item down the descent.
		q := QueryRequest{Genes: genes, Columns: [][]float64{m.Col(0), m.Col(1)}, Params: p}
		solo := decodeQuery(t, postJSON(t, s, "/query", q))
		if solo.Stats.QueryEdges != 1 || len(solo.Answers) != 0 {
			t.Fatalf("/query %v: %d edges, %d answers; want 1 edge, no answers", genes, solo.Stats.QueryEdges, len(solo.Answers))
		}
		req.Queries = append(req.Queries, BatchQueryJSON{Genes: q.Genes, Columns: q.Columns, Params: q.Params})
	}
	full := queryReqFor(m, 0.6, 0.4, ParamsJSON{Seed: 3, Analytic: true})
	want := decodeQuery(t, postJSON(t, s, "/query", full))
	req.Queries = append(req.Queries, BatchQueryJSON{Genes: full.Genes, Columns: full.Columns, Params: full.Params})

	frames, done := batchFrames(t, postJSON(t, s, "/query-batch", req))
	if done.Queries != 5 || done.Errors != 0 {
		t.Fatalf("done frame = %+v", done)
	}
	for i := 0; i < 4; i++ {
		if f := frames[i]; f.Error != "" || len(f.Answers) != 0 || f.Stats == nil || f.Stats.QueryEdges != 1 {
			t.Fatalf("item %d: %+v", i, f)
		}
	}
	if got := frames[4]; len(got.Answers) != len(want.Answers) || len(want.Answers) == 0 {
		t.Fatalf("valid sibling: %d answers in the batch, %d solo", len(got.Answers), len(want.Answers))
	}
}
