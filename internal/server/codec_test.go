package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/imgrn/imgrn/internal/cluster"
	"github.com/imgrn/imgrn/internal/codec"
	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/plan"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/synth"
)

// fastTypes builds a zero value of every request type the one-pass reader
// decodes.
var fastTypes = []func() codec.Canonical{
	func() codec.Canonical { return new(QueryRequest) },
	func() codec.Canonical { return new(GraphQueryRequest) },
	func() codec.Canonical { return new(BatchRequest) },
	func() codec.Canonical { return new(AddMatrixRequest) },
	func() codec.Canonical { return new(RemoveMatrixRequest) },
}

// FuzzDecodeRequest holds the one-pass reader to encoding/json: for every
// fast-path type and any body, decodeBody accepts what a json.Decoder with
// DisallowUnknownFields accepts, fails with the same error text, and
// decodes a deeply equal value. The committed corpus (testdata/fuzz) holds
// harness-shaped bodies and the inputs at the edge of the canonical
// subset; `go test -run '^$' -fuzz FuzzDecodeRequest ./internal/server`
// searches beyond it.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, zero := range fastTypes {
			got, want := zero(), zero()
			_, gotErr := codec.DecodeBody(body, nil, got)
			wantErr := codec.DecodeJSON(bytes.NewReader(body), want)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%T: err = %v, encoding/json %v", got, gotErr, wantErr)
			}
			if gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%T: err = %q, encoding/json %q", got, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%T: decoded %+v, encoding/json %+v", got, got, want)
			}
		}
	})
}

// synthRequests builds one value of every request type from synth
// matrices, the shapes the benchmark harness and ordinary clients send.
func synthRequests(t testing.TB) []codec.Canonical {
	t.Helper()
	ds, err := synth.GenerateDatabase(synth.DBParams{N: 20, NMin: 8, NMax: 12, LMin: 10, LMax: 20, GenePool: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := randgen.New(11)
	matrix := func(width int) ([]string, [][]float64) {
		q, _, err := ds.ExtractQuery(rng, width)
		if err != nil {
			t.Fatal(err)
		}
		var genes []string
		var cols [][]float64
		for j := 0; j < q.NumGenes(); j++ {
			genes = append(genes, strconv.Itoa(int(q.Gene(j))))
			cols = append(cols, q.Col(j))
		}
		return genes, cols
	}
	genes, cols := matrix(5)
	query := &QueryRequest{Genes: genes, Columns: cols,
		Params: ParamsJSON{Gamma: 0.4, Alpha: 0.3, Seed: 1000, Analytic: true}}
	graph := &GraphQueryRequest{Genes: []string{"3", "7", "12"},
		Edges:  []EdgeJSON{{S: 0, T: 1, Prob: 0.8}, {S: 1, T: 2, Prob: 0.65}},
		Params: ParamsJSON{Gamma: 0.5, Alpha: 0.2, Samples: 64, TopK: 2, OneSided: true}}
	batch := &BatchRequest{}
	for i, width := range []int{8, 6, 4, 2} {
		g, c := matrix(width)
		batch.Queries = append(batch.Queries, BatchQueryJSON{Genes: g, Columns: c,
			Params: ParamsJSON{Gamma: 0.4, Alpha: 0.3, Samples: 48, Seed: uint64(3000 + i), Workers: 2}})
	}
	batch.Queries = append(batch.Queries, BatchQueryJSON{Genes: graph.Genes, Edges: graph.Edges,
		Params: ParamsJSON{Gamma: 0.4, Alpha: 0.3, Eps: 0.05, Delta: 0.01, Trace: true}})
	m := ds.DB.Matrix(0)
	add := &AddMatrixRequest{Source: 900}
	for j := 0; j < m.NumGenes(); j++ {
		add.Genes = append(add.Genes, strconv.Itoa(int(m.Gene(j))))
		add.Columns = append(add.Columns, m.Col(j))
	}
	return []codec.Canonical{query, graph, batch, add, &RemoveMatrixRequest{Source: 17}}
}

// TestCanonicalBodiesTakeFastPath: json.Marshal of every request type
// decodes on the one-pass reader, with no fallback, to the value that was
// marshalled. A wire field the reader does not know would send every
// request to encoding/json while every other test still passed.
func TestCanonicalBodiesTakeFastPath(t *testing.T) {
	reqs := synthRequests(t)
	if len(reqs) != len(fastTypes) {
		t.Fatalf("%d requests for %d fast-path types", len(reqs), len(fastTypes))
	}
	for i, want := range reqs {
		body, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got := fastTypes[i]()
		fast, err := codec.DecodeBody(body, nil, got)
		if err != nil || !fast {
			t.Fatalf("%T: fast = %v, err = %v", want, fast, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T: decoded %+v, want %+v", want, got, want)
		}
	}
}

// TestDecodedRequestDoesNotAliasBuffer: overwriting the body after a
// decode changes nothing decoded, so the pooled read buffer can be reused
// while the request lives on as an indexed matrix.
func TestDecodedRequestDoesNotAliasBuffer(t *testing.T) {
	for _, want := range synthRequests(t) {
		body, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got := reflect.New(reflect.TypeOf(want).Elem()).Interface().(codec.Canonical)
		if fast, err := codec.DecodeBody(body, nil, got); err != nil || !fast {
			t.Fatalf("%T: fast = %v, err = %v", want, fast, err)
		}
		for i := range body {
			body[i] = '9'
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T changed with its buffer: %+v", want, got)
		}
	}
}

// TestRequestBodyLimitEveryEndpoint: a body over MaxBodyBytes on every
// decoding endpoint is answered as encoding/json answered it from the
// capped stream — 400 and its error, unless the JSON value ends before
// the cap.
func TestRequestBodyLimitEveryEndpoint(t *testing.T) {
	tooLarge := `{"error":"invalid JSON: http: request body too large"}` + "\n"
	big := make([]float64, 100)
	for _, tc := range []struct {
		path     string
		body     string
		code     int
		response string
	}{
		{"/query-graph", mustMarshal(t, GraphQueryRequest{Genes: []string{"A", "B", "C"},
			Edges: []EdgeJSON{{0, 1, 0.9}, {1, 2, 0.9}, {0, 2, 0.9}, {2, 0, 0.9}}, Params: ParamsJSON{Gamma: 0.5, Alpha: 0.5}}),
			http.StatusBadRequest, tooLarge},
		{"/query-batch", mustMarshal(t, BatchRequest{Queries: []BatchQueryJSON{{Genes: []string{"A", "B"},
			Columns: [][]float64{big, big}, Params: ParamsJSON{Gamma: 0.5, Alpha: 0.5}}}}),
			http.StatusBadRequest, tooLarge},
		{"/remove-matrix", `{"source":` + strings.Repeat(" ", 80) + `3}`,
			http.StatusBadRequest, tooLarge},
		// The value ends inside the cap: the stream decoder never read the
		// rest, and the removal went ahead.
		{"/remove-matrix", `{"source":3}` + strings.Repeat(" ", 80),
			http.StatusOK, `{"status":"ok","source":3,"shard":0,"matrices":11}` + "\n"},
		{"/remove-matrix", `{"source":4} trailing bytes past the cap, never read by the decoder`,
			http.StatusOK, `{"status":"ok","source":4,"shard":0,"matrices":11}` + "\n"},
	} {
		s, _, _ := fixture(t)
		s.MaxBodyBytes = 64
		if len(tc.body) <= 64 {
			t.Fatalf("%s body of %d bytes is not oversized", tc.path, len(tc.body))
		}
		rec := postRaw(s, tc.path, tc.body)
		if rec.Code != tc.code || rec.Body.String() != tc.response {
			t.Errorf("%s %.20q...: %d %q, want %d %q", tc.path, tc.body, rec.Code, rec.Body.String(), tc.code, tc.response)
		}
	}
}

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func postRaw(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// encodingJSON is the reference: the bytes json.Encoder writes for v.
func encodingJSON(v any) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(v)
	return buf.Bytes()
}

// wireFloat draws from the float classes encoding/json formats
// differently: both sides of 1e-6 and 1e21, zero and −0, subnormals, the
// extremes and arbitrary exponents.
func wireFloat(rng *randgen.Rand) float64 {
	sign := 1.0
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch rng.Intn(10) {
	case 0:
		return math.Copysign(0, -sign)
	case 1:
		return sign * 1e-6 * math.Pow(10, rng.UniformIn(-0.5, 0.5))
	case 2:
		return sign * 1e21 * math.Pow(10, rng.UniformIn(-0.5, 0.5))
	case 3:
		return sign * math.Float64frombits(rng.Uint64()%(1<<52)) // subnormal
	case 4:
		return sign * []float64{math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-6, 1e21, 1e-7, 1e20}[rng.Intn(6)]
	case 5:
		return sign * math.Ldexp(rng.Float64(), rng.IntIn(-1074, 1023))
	case 6:
		return float64(rng.IntIn(-1000, 1000))
	default:
		return rng.Float64()
	}
}

// wireString draws gene names, stages and errors: plain ASCII most of the
// time, otherwise what encoding/json escapes (<>&, quotes, backslashes,
// control bytes, U+2028) or repairs (invalid UTF-8).
func wireString(rng *randgen.Rand) string {
	switch rng.Intn(8) {
	case 0:
		return "<a&b>"
	case 1:
		return "line\u2028sep\u2029"
	case 2:
		return "ctl\x00\x1f\t\n\"q\"\\"
	case 3:
		return "bad\xff\xfeutf8\xc3"
	case 4:
		return "é中"
	case 5:
		return ""
	default:
		return strconv.Itoa(rng.Intn(10000))
	}
}

func wireInt(rng *randgen.Rand) int {
	switch rng.Intn(3) {
	case 0:
		return int(rng.Uint64())
	case 1:
		return -rng.Intn(1000)
	}
	return rng.Intn(1000)
}

func wireAnswers(rng *randgen.Rand) []AnswerJSON {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return []AnswerJSON{}
	}
	out := make([]AnswerJSON, rng.Intn(4)+1)
	for i := range out {
		a := &out[i]
		a.Source, a.Prob = wireInt(rng), wireFloat(rng)
		if rng.Intn(6) > 0 {
			a.Genes = []string{}
			for n := rng.Intn(4); n > 0; n-- {
				a.Genes = append(a.Genes, wireString(rng))
			}
		}
		if rng.Intn(6) > 0 {
			a.Edges = []EdgeJSON{}
			for n := rng.Intn(4); n > 0; n-- {
				a.Edges = append(a.Edges, EdgeJSON{S: wireInt(rng), T: wireInt(rng), Prob: wireFloat(rng)})
			}
		}
	}
	return out
}

func wireStats(rng *randgen.Rand) QueryStats {
	st := QueryStats{
		QueryVertices: wireInt(rng), QueryEdges: wireInt(rng),
		NodePairsVisited: wireInt(rng), NodePairsPruned: wireInt(rng),
		PointPairsChecked: wireInt(rng), PointPairsPruned: wireInt(rng),
		CandidateGenes: wireInt(rng), CandidateMatrices: wireInt(rng),
		MatricesPrunedL5: wireInt(rng), Answers: wireInt(rng),
		IOCost: rng.Uint64(), IOHits: rng.Uint64() >> rng.Intn(64),
		CacheHits: wireInt(rng), CacheMisses: wireInt(rng), Draws: wireInt(rng),
		InferSeconds: wireFloat(rng), TraversalSeconds: wireFloat(rng),
		RefinementSeconds: wireFloat(rng), MarkovSeconds: wireFloat(rng),
		MonteCarloSeconds: wireFloat(rng), TotalSeconds: wireFloat(rng),
	}
	switch rng.Intn(3) {
	case 0: // no plan
	case 1:
		st.Plan = &PlanJSON{Mode: "fixed", Samples: wireInt(rng),
			PivotPruning: true, Signatures: true, MarkovPruning: true, BatchKernel: true}
	default:
		st.Plan = &PlanJSON{Mode: "adaptive", Samples: wireInt(rng),
			FromAccuracy: rng.Intn(2) == 0, Eps: wireFloat(rng), Delta: wireFloat(rng),
			PivotPruning: rng.Intn(2) == 0, Signatures: rng.Intn(2) == 0,
			MarkovPruning: rng.Intn(2) == 0, BatchKernel: rng.Intn(2) == 0,
			Skipped: []string{"markov_prune", wireString(rng)},
			Cost: &plan.CostModel{MarkovPerCandidate: wireFloat(rng), MonteCarloPerCandidate: wireFloat(rng),
				MarkovPruneFrac: wireFloat(rng), CacheHitRate: wireFloat(rng), MeanPivotCost: wireFloat(rng)}}
		if rng.Intn(3) == 0 {
			st.Plan.Skipped = nil
		}
	}
	return st
}

func wireTrace(rng *randgen.Rand) []SpanJSON {
	if rng.Intn(3) == 0 {
		return nil
	}
	out := []SpanJSON{}
	for n := rng.Intn(5); n > 0; n-- {
		out = append(out, SpanJSON{Stage: wireString(rng), BeginSeconds: wireFloat(rng),
			DurSeconds: wireFloat(rng), In: wireInt(rng), Out: wireInt(rng)})
	}
	return out
}

// TestEncoderMatchesEncodingJSON: the appended replies are byte-identical
// to json.NewEncoder(w).Encode over seeded random values, including
// encoding/json's float format, its string escaping, omitempty and null
// slices; and a value it refuses (a NaN or infinite probability) still
// produces what encoding/json writes for it, which is nothing.
func TestEncoderMatchesEncodingJSON(t *testing.T) {
	rng := randgen.New(40)
	check := func(name string, v any, got []byte, ok bool) {
		t.Helper()
		want := encodingJSON(v)
		if !ok {
			if len(want) != 0 {
				t.Fatalf("%s: appender refused a value encoding/json writes as %s", name, want)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
	for i := 0; i < 3000; i++ {
		resp := QueryResponse{Answers: wireAnswers(rng), Stats: wireStats(rng), Trace: wireTrace(rng)}
		got, ok := appendQueryResponse(nil, &resp)
		check("QueryResponse", resp, got, ok)

		frame := BatchFrameJSON{Index: wireInt(rng)}
		if rng.Intn(4) == 0 {
			frame.Error = wireString(rng)
		} else {
			st := wireStats(rng)
			frame.Answers, frame.Stats, frame.Trace = wireAnswers(rng), &st, wireTrace(rng)
		}
		got, ok = appendBatchFrame(nil, &frame)
		check("BatchFrameJSON", frame, got, ok)

		done := BatchDoneJSON{Done: rng.Intn(2) == 0, Queries: wireInt(rng), Errors: wireInt(rng), TotalSeconds: wireFloat(rng)}
		got, ok = appendBatchDone(nil, &done)
		check("BatchDoneJSON", done, got, ok)
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := QueryResponse{Answers: []AnswerJSON{{Source: 1, Prob: bad, Genes: []string{"A"}}}}
		if _, ok := appendQueryResponse(nil, &resp); ok {
			t.Fatalf("appender accepted probability %v", bad)
		}
		rec := httptest.NewRecorder()
		writeQueryResponse(rec, resp)
		if want := encodingJSON(resp); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("probability %v: %d %q, encoding/json %q", bad, rec.Code, rec.Body.Bytes(), want)
		}
	}
}

// TestCodecPoolsConcurrent: goroutines decoding and encoding at once,
// each through buffers the others return to the pools, read back their
// own requests and write their own replies.
func TestCodecPoolsConcurrent(t *testing.T) {
	reqs := synthRequests(t)
	bodies := make([][]byte, len(reqs))
	for i, req := range reqs {
		bodies[i] = []byte(mustMarshal(t, req))
	}
	rng := randgen.New(41)
	resps := make([]QueryResponse, 16)
	wants := make([][]byte, len(resps))
	for i := range resps {
		resps[i] = QueryResponse{Answers: wireAnswers(rng), Stats: wireStats(rng), Trace: wireTrace(rng)}
		wants[i] = encodingJSON(resps[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (g + n) % len(reqs)
				got := fastTypes[i]()
				if err := codec.Decode(bytes.NewReader(bodies[i]), got); err != nil || !reflect.DeepEqual(got, reqs[i]) {
					t.Errorf("goroutine %d: %T decoded %+v, %v", g, got, got, err)
					return
				}
				j := (g*7 + n) % len(resps)
				var buf bytes.Buffer
				codec.EncodeFrame(&buf, &resps[j], appendQueryResponse)
				if !bytes.Equal(buf.Bytes(), wants[j]) {
					t.Errorf("goroutine %d: reply %d reads %s", g, j, buf.Bytes())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReplyFramesOneWritePerFrame: every /query-batch frame reaches the
// ResponseWriter in exactly one Write, the contract NDJSON readers split
// on.
func TestReplyFramesOneWritePerFrame(t *testing.T) {
	s, _, _ := fixture(t)
	body := mustMarshal(t, BatchRequest{Queries: []BatchQueryJSON{
		{Genes: []string{"A", "B"}, Edges: []EdgeJSON{{0, 1, 0.9}}, Params: ParamsJSON{Gamma: 0.3, Alpha: 0.5, Analytic: true, Trace: true}},
		{Genes: []string{"A", "nope"}, Edges: []EdgeJSON{{0, 1, 0.9}}, Params: ParamsJSON{Gamma: 0.3, Alpha: 0.5}},
	}})
	rec := &writeRecorder{ResponseRecorder: httptest.NewRecorder()}
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query-batch", strings.NewReader(body)))
	if rec.Code != http.StatusOK || len(rec.writes) != 3 {
		t.Fatalf("status %d, %d writes: %q", rec.Code, len(rec.writes), rec.writes)
	}
	for _, w := range rec.writes {
		if strings.Count(w, "\n") != 1 || !strings.HasSuffix(w, "\n") || !json.Valid([]byte(w)) {
			t.Errorf("write is not one frame: %q", w)
		}
	}
}

type writeRecorder struct {
	*httptest.ResponseRecorder
	writes []string
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.writes = append(w.writes, string(p))
	return w.ResponseRecorder.Write(p)
}

// BenchmarkDecodeQuery times one /query body of a 5-gene synth query on
// the one-pass reader and on encoding/json.
func BenchmarkDecodeQuery(b *testing.B) {
	body, err := json.Marshal(synthRequests(b)[0])
	if err != nil {
		b.Fatal(err)
	}
	b.Run("canonical", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req QueryRequest
			if fast, err := codec.DecodeBody(body, nil, &req); !fast || err != nil {
				b.Fatal(fast, err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req QueryRequest
			if err := codec.DecodeJSON(bytes.NewReader(body), &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestPlainDecimalMatchesSscanf: the gene-ID shortcut reads every name it
// takes to the value fmt.Sscanf's %d and strconv.ParseInt, the fallback,
// both read, and leaves the rest to the fallback.
func TestPlainDecimalMatchesSscanf(t *testing.T) {
	names := []string{"0", "-0", "7", "007", "-12", "123456789012345678", "-999999999999999999",
		"1234567890123456789", "", "-", "--1", "+3", " 4", "5 ", "12abc", "0x1f", "1_000", "A", "é1"}
	rng := randgen.New(5)
	for i := 0; i < 1000; i++ {
		names = append(names, strconv.FormatInt(int64(rng.Uint64()>>rng.Intn(64))-int64(rng.Uint64()>>rng.Intn(64)), 10))
	}
	for _, name := range names {
		got, ok := plainDecimal(name)
		if !ok {
			continue
		}
		var want int64
		if _, err := fmt.Sscanf(name, "%d", &want); err != nil || got != want {
			t.Errorf("%q: plainDecimal %d, Sscanf %d (%v)", name, got, want, err)
		}
		if n, err := strconv.ParseInt(name, 10, 64); err != nil || got != n {
			t.Errorf("%q: plainDecimal %d, ParseInt %d (%v)", name, got, n, err)
		}
	}
	for _, name := range []string{"1234567890123456789", "+3", " 4", "12abc", "0x1f", "-"} {
		if _, ok := plainDecimal(name); ok {
			t.Errorf("%q taken by plainDecimal", name)
		}
	}
}

// clusterWireTypes are the cluster wire types on the shared codec, with
// the decode each runs through: the shard server decodes the envelope and
// the mutation body as a request (codec.Decode), the coordinator each
// response frame as json.Unmarshal would (codec.Unmarshal).
var clusterWireTypes = []struct {
	zero  func() codec.Canonical
	frame bool
}{
	{func() codec.Canonical { return new(cluster.BatchExecRequest) }, false},
	{func() codec.Canonical { return new(cluster.MutateRequest) }, false},
	{func() codec.Canonical { return new(cluster.BatchExecFrame) }, true},
}

// FuzzDecodeClusterWire holds the cluster wire's one-pass readers to
// encoding/json as FuzzDecodeRequest holds the public bodies': for every
// wire type and any input, the same accept/reject, error text and decoded
// value; and every value encoding/json decodes is appended byte-identical
// to json.Marshal (json.Encoder for a frame). It is seeded from the wire
// of the cluster byte-identity queries and from harness-shaped envelopes;
// `go test -run '^$' -fuzz FuzzDecodeClusterWire ./internal/server`
// searches beyond them.
func FuzzDecodeClusterWire(f *testing.F) {
	for _, seed := range clusterWireSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, typ := range clusterWireTypes {
			got, want := typ.zero(), typ.zero()
			var gotErr, wantErr error
			if typ.frame {
				gotErr, wantErr = codec.Unmarshal(body, got), json.Unmarshal(body, want)
			} else {
				_, gotErr = codec.DecodeBody(body, nil, got)
				wantErr = codec.DecodeJSON(bytes.NewReader(body), want)
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%T: err = %v, encoding/json %v", got, gotErr, wantErr)
			}
			if gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%T: err = %q, encoding/json %q", got, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%T: decoded %+v, encoding/json %+v", got, got, want)
			}
			if wantErr == nil {
				checkClusterEncoding(t, want)
			}
		}
	})
}

// checkClusterEncoding: the appended encoding of v is json.Marshal's (for
// a frame, json.Encoder's), and fails where json.Marshal fails.
func checkClusterEncoding(t testing.TB, v any) {
	t.Helper()
	var got, want []byte
	var gotErr, wantErr error
	switch v := v.(type) {
	case *cluster.BatchExecRequest:
		got, gotErr = codec.Marshal(nil, v, cluster.AppendBatchExecRequest)
		want, wantErr = json.Marshal(v)
	case *cluster.MutateRequest:
		got, gotErr = codec.Marshal(nil, v, cluster.AppendMutateRequest)
		want, wantErr = json.Marshal(v)
	case *cluster.BatchExecFrame:
		got, want = codec.AppendFrame(nil, v, cluster.AppendBatchExecFrame), encodingJSON(v)
	default:
		t.Fatalf("no cluster encoder for %T", v)
	}
	if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("%T %+v:\n got %s (%v)\nwant %s (%v)", v, v, got, gotErr, want, wantErr)
	}
}

// recordWire records, per endpoint, the request bodies a shard server
// receives and the frames it sends.
type recordWire struct {
	mu     sync.Mutex
	bodies [][]byte
	frames [][]byte
}

type frameRecorder struct {
	http.ResponseWriter
	rec *recordWire
}

func (w frameRecorder) Write(p []byte) (int, error) {
	w.rec.mu.Lock()
	w.rec.frames = append(w.rec.frames, bytes.Clone(p))
	w.rec.mu.Unlock()
	return w.ResponseWriter.Write(p)
}

func (w frameRecorder) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

func (rec *recordWire) wrap(_ int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == cluster.PathExec || r.URL.Path == cluster.PathMutate {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			rec.mu.Lock()
			rec.bodies = append(rec.bodies, body)
			rec.mu.Unlock()
			if r.URL.Path == cluster.PathExec {
				w = frameRecorder{w, rec}
			}
		}
		h.ServeHTTP(w, r)
	})
}

// recordedClusterWire runs the byte-identity queries of the cluster
// tests — matrix and graph items on both kernels, top-k, a batch — and a
// replicated add and remove through a test cluster, and returns every
// envelope, mutation body and response frame that crossed the wire.
func recordedClusterWire(t testing.TB) [][]byte {
	t.Helper()
	rec := &recordWire{}
	tc := newTestCluster(t, 3, 2, rec.wrap, nil)
	ctx := context.Background()
	items := []core.BatchItem{
		{Matrix: tc.queryMatrix(t, 3), Params: clusterParamsFor(true)},
		{Graph: tc.queryGraph(), Params: clusterParamsFor(false), K: 2},
		{Matrix: tc.queryMatrix(t, 7), Params: clusterParamsFor(false), K: 3},
	}
	for _, it := range items {
		if _, err := tc.remote.QueryBatch(ctx, []core.BatchItem{it}, core.BatchOptions{}); err.Errors != 0 {
			t.Fatalf("recording the cluster wire: %d failed items", err.Errors)
		}
	}
	if _, st := tc.remote.QueryBatch(ctx, items, core.BatchOptions{}); st.Errors != 0 {
		t.Fatalf("recording the cluster wire: %d failed items", st.Errors)
	}
	m, err := gene.NewMatrix(300, tc.db.BySource(0).Genes(), moduleColumns(randgen.New(3), 18, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.remote.AddMatrix(m); err != nil {
		t.Fatal(err)
	}
	if err := tc.remote.RemoveMatrix(300); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append(rec.bodies, rec.frames...)
}

// harnessWire builds an envelope, a mutation body and frames in the shape
// of the benchmark's cluster workload: five-gene analytic graph items
// with a resolved plan, a matrix add, and answer frames.
func harnessWire(t testing.TB) [][]byte {
	t.Helper()
	rng := randgen.New(12)
	pl := &plan.Plan{Pivot: true, Signatures: true, Markov: true, Batch: true, Adaptive: true,
		Skipped: []string{"markov_prune"}, Cost: plan.CostModel{MarkovPerCandidate: 1.2e-6, MonteCarloPerCandidate: 3.4e-5, CacheHitRate: 0.93}}
	raw, err := pl.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	env := cluster.BatchExecRequest{Proto: cluster.ProtoVersion, QueryID: "c4242-17", NumShards: 3, Shard: 1, ItemTimeoutMs: 30000}
	frame := cluster.BatchItemFrame{Index: 1, Shard: 1, Stats: cluster.WireStats{TraversalNs: 81234, TotalNs: 99120,
		IOCost: 14, NodePairsVisited: 40, NodePairsPruned: 31, PointPairsChecked: 212, CandidateGenes: 9, Answers: 3}}
	for i := 0; i < 2; i++ {
		it := cluster.BatchExecItem{Params: cluster.WireParams{Gamma: 0.4, Alpha: 0.3, Seed: 1000, Analytic: true, Workers: 2}, Plan: raw}
		for g := 0; g < 5; g++ {
			it.Genes = append(it.Genes, int32(rng.Intn(800)))
		}
		for s := 0; s < 5; s++ {
			for d := s + 1; d < 5; d++ {
				it.Edges = append(it.Edges, cluster.WireEdge{S: s, T: d, Prob: rng.Float64()})
			}
		}
		env.Items = append(env.Items, it)
		frame.Answers = append(frame.Answers, cluster.WireAnswer{Source: rng.Intn(800), Prob: rng.Float64(), Genes: it.Genes, Edges: it.Edges})
	}
	env.Items[1].K = 4
	add := cluster.MutateRequest{Proto: cluster.ProtoVersion, Op: "add", Source: 801, Shard: 2, NumShards: 3, Genes: env.Items[0].Genes}
	for range add.Genes {
		col := make([]float64, 40)
		for i := range col {
			col[i] = rng.Gaussian(0, 1)
		}
		add.Columns = append(add.Columns, col)
	}
	var out [][]byte
	for _, v := range []any{env, add,
		cluster.MutateRequest{Proto: cluster.ProtoVersion, Op: "remove", Source: 801, Shard: 2, NumShards: 3},
		cluster.BatchExecFrame{Item: &frame},
		cluster.BatchExecFrame{Accept: &cluster.AcceptFrame{Item: 1, Shard: 1, Source: 77, Prob: 0.8125}},
		cluster.BatchExecFrame{Done: true},
		cluster.BatchExecFrame{Error: `item 3: unknown gene "x<y>"`}} {
		out = append(out, encodingJSON(v))
	}
	return out
}

// clusterWireSeeds is the fuzz seed corpus: recorded and harness-shaped
// wire, then inputs at the edge of the canonical subset.
func clusterWireSeeds(t testing.TB) [][]byte {
	seeds := append(recordedClusterWire(t), harnessWire(t)...)
	for _, s := range []string{
		`{"proto":5,"queryId":"q","numShards":3,"shard":0,"items":[{"genes":[1,2],"params":{"gamma":0.5,"alpha":0.1,"seed":0},"plan":null}]}`,
		`{"proto":5,"queryId":"q","numShards":3,"shard":0,"items":[{"genes":[1,2],"params":{"gamma":0.5,"alpha":0.1,"seed":0},"plan":{ "version" : 1, "x":[1,true,"<&>"]}}]}`,
		`{"proto":5,"queryId":"q\u0041","numShards":3,"shard":0,"items":null}`,
		`{"proto":5,"queryID":"q","numShards":3,"shard":0,"items":[]}`,
		`{"proto":5,"proto":4,"numShards":3,"shard":0,"items":[]}`,
		`{"proto":5,"numShards":3,"shard":0,"items":[{"genes":[2147483648]}]}`,
		`{"proto":5,"numShards":3,"shard":0,"items":[{"genes":[-0,1.0,1e2]}]}`,
		`{"proto":5,"numShards":3,"shard":0,"itemTimeoutMs":-1,"items":[{"params":{"gamma":1e400,"seed":-1}}]}`,
		`{"proto":5,"numShards":3,"shard":0,"items":[],"extra":{}}`,
		`{"proto":5,"op":"add","source":1,"shard":0,"numShards":3,"genes":null,"columns":[null,[1,2],[]]}`,
		`{"proto":5,"op":"add","source":1,"shard":0,"numShards":3,"genes":[1],"columns":[[1,2]]} trailing`,
		`{"item":{"index":0,"shard":1,"answers":[{"source":3,"prob":0.5,"genes":null,"edges":null}],"stats":{}}}`,
		`{"item":{"index":0,"shard":1,"stats":{"ioCost":-1}},"done":true}`,
		`{"accept":null,"done":true}`,
		`{"Accept":{"item":0,"shard":0,"source":1,"prob":0.5}}`,
		`{"done":true,"error":"x","unknown":[1,{"a":null}]}`,
		`{}`, `null`, `[]`, `{"done":tru`, ``,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// TestClusterWireTakesFastPath: every envelope, mutation body and frame
// of the recorded and harness-shaped wire decodes on the one-pass reader
// with no fallback, except frames carrying escaped error text. A wire
// field the reader does not know would send every leg to encoding/json
// while every other test still passed.
func TestClusterWireTakesFastPath(t *testing.T) {
	wire := append(recordedClusterWire(t), harnessWire(t)...)
	for _, body := range wire {
		var v codec.Canonical
		switch {
		case bytes.HasPrefix(body, []byte(`{"proto":5,"queryId"`)):
			v = new(cluster.BatchExecRequest)
		case bytes.HasPrefix(body, []byte(`{"proto":5,"op"`)):
			v = new(cluster.MutateRequest)
		case bytes.Contains(body, []byte(`\u003c`)):
			continue
		default:
			v = new(cluster.BatchExecFrame)
		}
		if fast, err := codec.DecodeBody(body, nil, v); err != nil || !fast {
			t.Errorf("%T %s: fast = %v, err = %v", v, body, fast, err)
		}
	}
}

// wirePlan draws a json.RawMessage plan: absent, a real encoded plan, or
// raw bytes json.Marshal compacts, escapes or refuses.
func wirePlan(rng *randgen.Rand) json.RawMessage {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return json.RawMessage{}
	case 2:
		return json.RawMessage(`{ "version": 1,` + "\n" + `"skipped" : ["a b"] }`)
	case 3:
		return json.RawMessage(`{"note":"<&>","x":[1,-2.5e-7,true,false,{}]}`)
	case 4:
		return json.RawMessage(`{"version":1,"samples":`) // invalid: Marshal fails
	case 5:
		return json.RawMessage(`null`)
	}
	pl := &plan.Plan{Samples: rng.Intn(2000), Eps: wireFloat(rng), Pivot: rng.Intn(2) == 0,
		Signatures: true, Markov: rng.Intn(2) == 0, Batch: true, Adaptive: rng.Intn(2) == 0}
	if rng.Intn(2) == 0 {
		pl.Skipped = []string{"pivot_prune", "markov_prune"}
		pl.Cost = plan.CostModel{MarkovPerCandidate: wireFloat(rng), CacheHitRate: rng.Float64()}
	}
	raw, err := pl.EncodeWire()
	if err != nil {
		return json.RawMessage(`{"unencodable":true}`)
	}
	return raw
}

func wireInt32s(rng *randgen.Rand) []int32 {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return []int32{}
	}
	out := make([]int32, rng.Intn(6)+1)
	for i := range out {
		out[i] = int32(rng.Uint64())
	}
	return out
}

func wireEdges(rng *randgen.Rand) []cluster.WireEdge {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []cluster.WireEdge{}
	}
	out := make([]cluster.WireEdge, rng.Intn(5)+1)
	for i := range out {
		out[i] = cluster.WireEdge{S: wireInt(rng), T: wireInt(rng), Prob: wireFloat(rng)}
	}
	return out
}

// wireCount is zero half the time, so omitempty fields come and go.
func wireCount(rng *randgen.Rand) int {
	if rng.Intn(2) == 0 {
		return 0
	}
	return wireInt(rng)
}

// TestClusterWireEncoderMatchesEncodingJSON: the envelope and mutation
// body are appended byte-identical to json.Marshal, and the frames to
// json.Encoder, over seeded random values: encoding/json's float format
// and string escaping, omitempty, null slices, and json.RawMessage plans
// compacted, HTML-escaped or refused as encoding/json does them; a value
// json.Marshal refuses (a NaN column value, an invalid plan) fails alike.
func TestClusterWireEncoderMatchesEncodingJSON(t *testing.T) {
	rng := randgen.New(42)
	for n := 0; n < 3000; n++ {
		env := cluster.BatchExecRequest{Proto: wireInt(rng), QueryID: wireString(rng), NumShards: wireInt(rng),
			Shard: wireInt(rng), ItemTimeoutMs: int64(wireCount(rng))}
		if rng.Intn(6) > 0 {
			env.Items = []cluster.BatchExecItem{}
			for k := rng.Intn(4); k > 0; k-- {
				env.Items = append(env.Items, cluster.BatchExecItem{K: wireCount(rng), Genes: wireInt32s(rng), Edges: wireEdges(rng),
					Params: cluster.WireParams{Gamma: wireFloat(rng), Alpha: wireFloat(rng), Samples: wireCount(rng), Seed: rng.Uint64(),
						Analytic: rng.Intn(2) == 0, OneSided: rng.Intn(2) == 0, Workers: wireCount(rng)},
					Plan: wirePlan(rng)})
			}
		}
		checkClusterEncoding(t, &env)

		mut := cluster.MutateRequest{Proto: wireInt(rng), Op: wireString(rng), Source: wireInt(rng), Shard: wireInt(rng),
			NumShards: wireInt(rng), Genes: wireInt32s(rng)}
		if rng.Intn(4) > 0 {
			mut.Columns = [][]float64{}
			for k := rng.Intn(4); k > 0; k-- {
				var col []float64
				if rng.Intn(5) > 0 {
					col = make([]float64, rng.Intn(5))
					for i := range col {
						col[i] = wireFloat(rng)
					}
					if len(col) > 0 && rng.Intn(40) == 0 {
						col[0] = math.NaN()
					}
				}
				mut.Columns = append(mut.Columns, col)
			}
		}
		checkClusterEncoding(t, &mut)

		var fr cluster.BatchExecFrame
		if rng.Intn(3) == 0 {
			fr.Accept = &cluster.AcceptFrame{Item: wireInt(rng), Shard: wireInt(rng), Source: wireInt(rng), Prob: wireFloat(rng)}
		}
		if rng.Intn(2) == 0 {
			it := &cluster.BatchItemFrame{Index: wireInt(rng), Shard: wireInt(rng)}
			if rng.Intn(4) > 0 {
				it.Answers = []cluster.WireAnswer{}
				for k := rng.Intn(4); k > 0; k-- {
					it.Answers = append(it.Answers, cluster.WireAnswer{Source: wireInt(rng), Prob: wireFloat(rng),
						Genes: wireInt32s(rng), Edges: wireEdges(rng)})
				}
			}
			it.Stats = cluster.WireStats{TraversalNs: int64(wireCount(rng)), RefinementNs: int64(wireCount(rng)),
				MarkovNs: int64(wireCount(rng)), MonteCarloNs: int64(wireCount(rng)), TotalNs: int64(wireCount(rng)),
				IOCost: uint64(wireCount(rng)), IOHits: uint64(wireCount(rng)),
				NodePairsVisited: wireCount(rng), NodePairsPruned: wireCount(rng), PointPairsChecked: wireCount(rng),
				PointPairsPruned: wireCount(rng), CandidateGenes: wireCount(rng), CandidateMatrices: wireCount(rng),
				MatricesPrunedL5: wireCount(rng), Answers: wireCount(rng), CacheHits: wireCount(rng),
				CacheMisses: wireCount(rng), Draws: wireCount(rng)}
			if rng.Intn(4) == 0 {
				it.Error = wireString(rng)
			}
			fr.Item = it
		}
		fr.Done = rng.Intn(3) == 0
		if rng.Intn(4) == 0 {
			fr.Error = wireString(rng)
		}
		checkClusterEncoding(t, &fr)
	}
}

// TestResolveGenesWholeDecimal: a gene name outside the catalog resolves
// only if the whole name is a decimal gene.ID. A numeric prefix with
// anything after it, another base, or a value out of int32 range is an
// unknown gene, answered with 400, not read as some other gene.
func TestResolveGenesWholeDecimal(t *testing.T) {
	s, _, _ := fixture(t)
	for name, want := range map[string]gene.ID{
		"3": 3, "+3": 3, "-0": 0, "007": 7, "2147483647": math.MaxInt32, "-2147483648": math.MinInt32,
		"000000000000000000000012": 12,
	} {
		ids, err := s.resolveGenes([]string{"A", name})
		if err != nil || len(ids) != 2 || ids[1] != want {
			t.Errorf("%q: %v, %v; want gene %d", name, ids, err, want)
		}
	}
	for _, name := range []string{"12abc", "7.5", "0x10", "1_000", " 4", "4 ", "2147483648", "-2147483649",
		"4294967296", "99999999999999999999", "", "-", "+"} {
		req := GraphQueryRequest{Genes: []string{"A", name}, Edges: []EdgeJSON{{0, 1, 0.9}},
			Params: ParamsJSON{Gamma: 0.3, Alpha: 0.5, Analytic: true}}
		rec := postJSON(t, s, "/query-graph", req)
		want := fmt.Sprintf(`{"error":%s}`+"\n", mustMarshal(t, fmt.Sprintf("unknown gene %q", name)))
		if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
			t.Errorf("%q: %d %s, want 400 %s", name, rec.Code, rec.Body, want)
		}
	}
}
