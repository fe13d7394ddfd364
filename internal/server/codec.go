package server

import (
	"net/http"
	"sync"
	"sync/atomic"

	"github.com/imgrn/imgrn/internal/codec"
)

// The serve-path side of the shared codec (DESIGN.md §8.3): the one-pass
// readers of the public query and mutation bodies, and the appenders of
// the answer-carrying replies. The primitives, the buffer pool and the
// encoding/json fallback are package codec's, shared with the cluster
// wire.

func readEdges(r *codec.Reader, dst *[]EdgeJSON) bool {
	if r.Null() {
		return true
	}
	out := make([]EdgeJSON, 0, 8)
	ok := r.Array(func() bool {
		var e EdgeJSON
		var seen uint32
		ok := r.Object(func(key []byte) bool {
			switch string(key) {
			case "s":
				return codec.Once(&seen, 1) && r.Int(&e.S)
			case "t":
				return codec.Once(&seen, 2) && r.Int(&e.T)
			case "prob":
				return codec.Once(&seen, 4) && r.Float(&e.Prob)
			}
			return false
		})
		out = append(out, e)
		return ok
	})
	*dst = out
	return ok
}

func (p *ParamsJSON) readCanonical(r *codec.Reader) bool {
	var seen uint32
	return r.Object(func(key []byte) bool {
		switch string(key) {
		case "gamma":
			return codec.Once(&seen, 1<<0) && r.Float(&p.Gamma)
		case "alpha":
			return codec.Once(&seen, 1<<1) && r.Float(&p.Alpha)
		case "samples":
			return codec.Once(&seen, 1<<2) && r.Int(&p.Samples)
		case "eps":
			return codec.Once(&seen, 1<<3) && r.Float(&p.Eps)
		case "delta":
			return codec.Once(&seen, 1<<4) && r.Float(&p.Delta)
		case "seed":
			return codec.Once(&seen, 1<<5) && r.Uint64(&p.Seed)
		case "analytic":
			return codec.Once(&seen, 1<<6) && r.Bool(&p.Analytic)
		case "oneSided":
			return codec.Once(&seen, 1<<7) && r.Bool(&p.OneSided)
		case "topK":
			return codec.Once(&seen, 1<<8) && r.Int(&p.TopK)
		case "workers":
			return codec.Once(&seen, 1<<9) && r.Int(&p.Workers)
		case "trace":
			return codec.Once(&seen, 1<<10) && r.Bool(&p.Trace)
		}
		return false
	})
}

func (q *QueryRequest) ReadCanonical(r *codec.Reader) bool {
	var seen uint32
	return r.Object(func(key []byte) bool {
		switch string(key) {
		case "genes":
			return codec.Once(&seen, 1) && r.Strings(&q.Genes)
		case "columns":
			return codec.Once(&seen, 2) && r.Columns(&q.Columns)
		case "params":
			return codec.Once(&seen, 4) && q.Params.readCanonical(r)
		}
		return false
	})
}

func (q *GraphQueryRequest) ReadCanonical(r *codec.Reader) bool {
	var seen uint32
	return r.Object(func(key []byte) bool {
		switch string(key) {
		case "genes":
			return codec.Once(&seen, 1) && r.Strings(&q.Genes)
		case "edges":
			return codec.Once(&seen, 2) && readEdges(r, &q.Edges)
		case "params":
			return codec.Once(&seen, 4) && q.Params.readCanonical(r)
		}
		return false
	})
}

func (q *BatchQueryJSON) readCanonical(r *codec.Reader) bool {
	var seen uint32
	return r.Object(func(key []byte) bool {
		switch string(key) {
		case "genes":
			return codec.Once(&seen, 1) && r.Strings(&q.Genes)
		case "columns":
			return codec.Once(&seen, 2) && r.Columns(&q.Columns)
		case "edges":
			return codec.Once(&seen, 4) && readEdges(r, &q.Edges)
		case "params":
			return codec.Once(&seen, 8) && q.Params.readCanonical(r)
		}
		return false
	})
}

func (b *BatchRequest) ReadCanonical(r *codec.Reader) bool {
	var seen uint32
	return r.Object(func(key []byte) bool {
		if string(key) != "queries" || !codec.Once(&seen, 1) {
			return false
		}
		b.Queries = make([]BatchQueryJSON, 0, 8)
		return r.Array(func() bool {
			b.Queries = append(b.Queries, BatchQueryJSON{})
			return b.Queries[len(b.Queries)-1].readCanonical(r)
		})
	})
}

func (a *AddMatrixRequest) ReadCanonical(r *codec.Reader) bool {
	var seen uint32
	return r.Object(func(key []byte) bool {
		switch string(key) {
		case "source":
			return codec.Once(&seen, 1) && r.Int(&a.Source)
		case "genes":
			return codec.Once(&seen, 2) && r.Strings(&a.Genes)
		case "columns":
			return codec.Once(&seen, 4) && r.Columns(&a.Columns)
		}
		return false
	})
}

func (a *RemoveMatrixRequest) ReadCanonical(r *codec.Reader) bool {
	var seen uint32
	return r.Object(func(key []byte) bool {
		return string(key) == "source" && codec.Once(&seen, 1) && r.Int(&a.Source)
	})
}

func appendEdges(e *codec.Encoder, es []EdgeJSON) {
	if es == nil {
		e.Raw("null")
		return
	}
	e.Byte('[')
	for i, ed := range es {
		if i > 0 {
			e.Byte(',')
		}
		e.Raw(`{"s":`)
		e.Int(ed.S)
		e.Raw(`,"t":`)
		e.Int(ed.T)
		e.Raw(`,"prob":`)
		e.Float(ed.Prob)
		e.Byte('}')
	}
	e.Byte(']')
}

func appendAnswers(e *codec.Encoder, as []AnswerJSON) {
	if as == nil {
		e.Raw("null")
		return
	}
	e.Byte('[')
	for i := range as {
		a := &as[i]
		if i > 0 {
			e.Byte(',')
		}
		e.Raw(`{"source":`)
		e.Int(a.Source)
		e.Raw(`,"prob":`)
		e.Float(a.Prob)
		e.Raw(`,"genes":`)
		e.Strs(a.Genes)
		e.Raw(`,"edges":`)
		appendEdges(e, a.Edges)
		e.Byte('}')
	}
	e.Byte(']')
}

func appendStats(e *codec.Encoder, st *QueryStats) {
	e.Raw(`{"queryVertices":`)
	e.Int(st.QueryVertices)
	e.Raw(`,"queryEdges":`)
	e.Int(st.QueryEdges)
	e.Raw(`,"nodePairsVisited":`)
	e.Int(st.NodePairsVisited)
	e.Raw(`,"nodePairsPruned":`)
	e.Int(st.NodePairsPruned)
	e.Raw(`,"pointPairsChecked":`)
	e.Int(st.PointPairsChecked)
	e.Raw(`,"pointPairsPruned":`)
	e.Int(st.PointPairsPruned)
	e.Raw(`,"candidateGenes":`)
	e.Int(st.CandidateGenes)
	e.Raw(`,"candidateMatrices":`)
	e.Int(st.CandidateMatrices)
	e.Raw(`,"matricesPrunedL5":`)
	e.Int(st.MatricesPrunedL5)
	e.Raw(`,"answers":`)
	e.Int(st.Answers)
	e.Raw(`,"ioPages":`)
	e.Uint64(st.IOCost)
	e.Raw(`,"ioBufferHits":`)
	e.Uint64(st.IOHits)
	e.Raw(`,"cacheHits":`)
	e.Int(st.CacheHits)
	e.Raw(`,"cacheMisses":`)
	e.Int(st.CacheMisses)
	e.Raw(`,"draws":`)
	e.Int(st.Draws)
	e.Raw(`,"inferSeconds":`)
	e.Float(st.InferSeconds)
	e.Raw(`,"traversalSeconds":`)
	e.Float(st.TraversalSeconds)
	e.Raw(`,"refinementSeconds":`)
	e.Float(st.RefinementSeconds)
	e.Raw(`,"markovPruneSeconds":`)
	e.Float(st.MarkovSeconds)
	e.Raw(`,"monteCarloSeconds":`)
	e.Float(st.MonteCarloSeconds)
	e.Raw(`,"totalSeconds":`)
	e.Float(st.TotalSeconds)
	if st.Plan != nil {
		e.Raw(`,"plan":`)
		appendPlan(e, st.Plan)
	}
	e.Byte('}')
}

func appendPlan(e *codec.Encoder, p *PlanJSON) {
	e.Raw(`{"mode":`)
	e.Str(p.Mode)
	e.Raw(`,"samples":`)
	e.Int(p.Samples)
	if p.FromAccuracy {
		e.Raw(`,"fromAccuracy":true`)
	}
	if p.Eps != 0 {
		e.Raw(`,"eps":`)
		e.Float(p.Eps)
	}
	if p.Delta != 0 {
		e.Raw(`,"delta":`)
		e.Float(p.Delta)
	}
	e.Raw(`,"pivotPruning":`)
	e.Bool(p.PivotPruning)
	e.Raw(`,"signatures":`)
	e.Bool(p.Signatures)
	e.Raw(`,"markovPruning":`)
	e.Bool(p.MarkovPruning)
	e.Raw(`,"batchKernel":`)
	e.Bool(p.BatchKernel)
	if len(p.Skipped) > 0 {
		e.Raw(`,"skipped":`)
		e.Strs(p.Skipped)
	}
	if p.Cost != nil {
		e.Raw(`,"cost":`)
		e.Marshal(p.Cost)
	}
	e.Byte('}')
}

func appendTrace(e *codec.Encoder, spans []SpanJSON) {
	e.Raw(`,"trace":[`)
	for i := range spans {
		sp := &spans[i]
		if i > 0 {
			e.Byte(',')
		}
		e.Raw(`{"stage":`)
		e.Str(sp.Stage)
		e.Raw(`,"beginSeconds":`)
		e.Float(sp.BeginSeconds)
		e.Raw(`,"durSeconds":`)
		e.Float(sp.DurSeconds)
		e.Raw(`,"in":`)
		e.Int(sp.In)
		e.Raw(`,"out":`)
		e.Int(sp.Out)
		e.Byte('}')
	}
	e.Byte(']')
}

// The append functions end each value with the newline json.Encoder
// writes after it.

func appendQueryResponse(b []byte, v *QueryResponse) ([]byte, bool) {
	e := codec.NewEncoder(b)
	e.Raw(`{"answers":`)
	appendAnswers(&e, v.Answers)
	e.Raw(`,"stats":`)
	appendStats(&e, &v.Stats)
	if len(v.Trace) > 0 {
		appendTrace(&e, v.Trace)
	}
	e.Raw("}\n")
	return e.Result()
}

func appendBatchFrame(b []byte, v *BatchFrameJSON) ([]byte, bool) {
	e := codec.NewEncoder(b)
	e.Raw(`{"index":`)
	e.Int(v.Index)
	if len(v.Answers) > 0 {
		e.Raw(`,"answers":`)
		appendAnswers(&e, v.Answers)
	}
	if v.Stats != nil {
		e.Raw(`,"stats":`)
		appendStats(&e, v.Stats)
	}
	if len(v.Trace) > 0 {
		appendTrace(&e, v.Trace)
	}
	if v.Error != "" {
		e.Raw(`,"error":`)
		e.Str(v.Error)
	}
	e.Raw("}\n")
	return e.Result()
}

func appendBatchDone(b []byte, v *BatchDoneJSON) ([]byte, bool) {
	e := codec.NewEncoder(b)
	e.Raw(`{"done":`)
	e.Bool(v.Done)
	e.Raw(`,"queries":`)
	e.Int(v.Queries)
	e.Raw(`,"errors":`)
	e.Int(v.Errors)
	e.Raw(`,"totalSeconds":`)
	e.Float(v.TotalSeconds)
	e.Raw("}\n")
	return e.Result()
}

// writeQueryResponse is writeJSON for a /query or /query-graph reply.
func writeQueryResponse(w http.ResponseWriter, v QueryResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	codec.EncodeFrame(w, &v, appendQueryResponse)
}

// frameWriter streams an NDJSON reply of item frames and one terminal
// frame, each in one Write (NDJSON readers, and tests, split on it). It
// flushes only when no further frame is ready: not while another frame
// waits for the lock, not after the last item frame, whose terminal frame
// follows at once, and not after the terminal frame, which the end of the
// handler flushes. A one-item reply then leaves in one write to the
// connection, while frames that retire apart still stream as they do.
type frameWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	waiting atomic.Int32
	mu      sync.Mutex
	items   int // item frames still to come; guarded by mu
}

// frameKind says what a frame ends: an item (item), nothing (progress),
// or the reply (terminal).
type frameKind int

const (
	progressFrame frameKind = iota
	itemFrame
	terminalFrame
)

// newFrameWriter sends the NDJSON header for a reply of items item frames.
func newFrameWriter(w http.ResponseWriter, items int) *frameWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fw := &frameWriter{w: w, items: items}
	fw.flusher, _ = w.(http.Flusher)
	return fw
}

// sendFrame writes v, encoded by appendTo, as one frame of kind.
func sendFrame[T any](fw *frameWriter, kind frameKind, v *T, appendTo func([]byte, *T) ([]byte, bool)) {
	bp := codec.GetBuf()
	defer codec.PutBuf(bp)
	*bp = codec.AppendFrame((*bp)[:0], v, appendTo)
	fw.waiting.Add(1)
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if len(*bp) > 0 {
		_, _ = fw.w.Write(*bp)
	}
	if kind == itemFrame {
		fw.items--
	}
	if fw.waiting.Add(-1) == 0 && kind != terminalFrame && fw.items > 0 && fw.flusher != nil {
		fw.flusher.Flush()
	}
}
