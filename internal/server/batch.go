package server

import (
	"fmt"
	"net/http"
	"time"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/obs"
)

// POST /query-batch: many queries, one request, one engine batch
// (DESIGN.md §14). The whole batch shares one decode, one admission
// decision, plan resolution and — on sharded servers — a single scatter;
// each query then runs the /query pipeline. The response streams NDJSON:
// one frame per query the moment it retires (not necessarily in request
// order on sharded servers), then a terminal {"done":true,...} frame
// with the batch-level counters. Item errors are per item: a frame with
// an "error" field never aborts its siblings.
//
// QueryTimeout bounds each ITEM, not the batch: every item's pipeline
// run gets one full window of its own, so a B-item batch may legitimately
// run up to B×QueryTimeout, and a slow query times out alone without
// eating into its siblings' windows. MaxConcurrent
// shedding counts a batch as its item count — a 64-query batch claims
// 64 slots or is shed with 503, so batching cannot bypass the load
// bound.

// BatchRequest is the /query-batch payload.
type BatchRequest struct {
	// Queries are the batch items, answered independently.
	Queries []BatchQueryJSON `json:"queries"`
}

// BatchQueryJSON is one batch item: a feature matrix (genes + columns,
// as in /query) or an explicit pattern (genes + edges, as in
// /query-graph), plus its own params.
type BatchQueryJSON struct {
	Genes   []string    `json:"genes"`
	Columns [][]float64 `json:"columns,omitempty"`
	Edges   []EdgeJSON  `json:"edges,omitempty"`
	Params  ParamsJSON  `json:"params"`
}

// BatchFrameJSON is one NDJSON result frame: the answer set of query
// Index, or its error. Trace is present when the item requested it.
type BatchFrameJSON struct {
	Index   int          `json:"index"`
	Answers []AnswerJSON `json:"answers,omitempty"`
	Stats   *QueryStats  `json:"stats,omitempty"`
	Trace   []SpanJSON   `json:"trace,omitempty"`
	Error   string       `json:"error,omitempty"`
}

// BatchDoneJSON is the terminal NDJSON frame: batch-level counters.
type BatchDoneJSON struct {
	Done         bool    `json:"done"`
	Queries      int     `json:"queries"`
	Errors       int     `json:"errors"`
	TotalSeconds float64 `json:"totalSeconds"`
}

// acquireN claims n execution slots — a batch counts as its item count
// against MaxConcurrent, so /query-batch cannot sidestep the load bound
// a /query client is subject to. All-or-nothing: a batch that does not
// fit entirely is shed with 503 rather than admitted partially.
func (s *Server) acquireN(w http.ResponseWriter, n int) (release func(), ok bool) {
	s.semOnce.Do(func() {
		if s.MaxConcurrent > 0 {
			s.sem = make(chan struct{}, s.MaxConcurrent)
		}
	})
	if s.sem == nil {
		s.met.inFlight.Add(int64(n))
		return func() { s.met.inFlight.Add(int64(-n)) }, true
	}
	claimed := 0
	for ; claimed < n; claimed++ {
		select {
		case s.sem <- struct{}{}:
		default:
			for ; claimed > 0; claimed-- {
				<-s.sem
			}
			s.met.shed.Inc()
			s.error(w, http.StatusServiceUnavailable, "server at capacity")
			return nil, false
		}
	}
	s.met.inFlight.Add(int64(n))
	return func() {
		s.met.inFlight.Add(int64(-n))
		for i := 0; i < n; i++ {
			<-s.sem
		}
	}, true
}

func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.error(w, http.StatusBadRequest, "empty batch")
		return
	}
	if max := s.maxBatchItems(); len(req.Queries) > max {
		s.error(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Queries), max))
		return
	}

	// Build every item up front; a malformed item is reported in its
	// result frame, never a 400 for the whole batch (its siblings are
	// already paid for). Validation errors from params surface the same
	// way, through core plan resolution.
	items := make([]core.BatchItem, len(req.Queries))
	preErr := make([]error, len(req.Queries))
	trs := make([]*obs.Tracer, len(req.Queries))
	for i := range req.Queries {
		trs[i] = obs.NewTracer()
		preErr[i] = s.buildBatchItem(&req.Queries[i], trs[i], &items[i])
	}

	release, ok := s.acquireN(w, len(req.Queries))
	if !ok {
		return
	}
	defer release()

	out := newFrameWriter(w, len(items))
	emit := func(f BatchFrameJSON) { sendFrame(out, itemFrame, &f, appendBatchFrame) }

	// Pre-failed items stream first; the live subset runs as one engine
	// batch with positions mapped back to request indexes.
	itemErrs := 0
	var live []core.BatchItem
	var orig []int
	for i := range items {
		if preErr[i] != nil {
			itemErrs++
			emit(BatchFrameJSON{Index: i, Error: preErr[i].Error()})
			continue
		}
		live = append(live, items[i])
		orig = append(orig, i)
	}

	start := time.Now()
	batchTr := obs.NewTracer()
	mark := batchTr.Start(obs.StageBatch)
	if len(live) > 0 {
		opts := core.BatchOptions{
			// Each item gets the full query window; the batch as a whole
			// is bounded only by the client connection.
			ItemTimeout: s.QueryTimeout,
			OnResult: func(pos int, res core.BatchResult) {
				i := orig[pos]
				if res.Err != nil {
					emit(BatchFrameJSON{Index: i, Error: res.Err.Error()})
					return
				}
				s.observeQuery("query-batch", res.Stats, trs[i])
				resp := s.response(res.Answers, res.Stats, req.Queries[i].Params, trs[i])
				st := resp.Stats
				emit(BatchFrameJSON{Index: i, Answers: resp.Answers, Stats: &st, Trace: resp.Trace})
			},
		}
		_, bst := s.eng.QueryBatch(r.Context(), live, opts)
		itemErrs += bst.Errors
	}
	mark.End(len(items), len(items)-itemErrs)
	s.met.stage.With(obs.StageBatch.String()).Observe(batchTr.Spans()[0].Dur.Seconds())

	m := &s.met
	m.batchRequests.Inc()
	m.batchQueries.Add(uint64(len(items)))
	m.batchSize.Observe(float64(len(items)))
	m.batchItemErrs.Add(uint64(itemErrs))

	writeDone := BatchDoneJSON{
		Done:         true,
		Queries:      len(items),
		Errors:       itemErrs,
		TotalSeconds: time.Since(start).Seconds(),
	}
	sendFrame(out, terminalFrame, &writeDone, appendBatchDone)
}

// buildBatchItem maps one wire item onto a core.BatchItem; an error
// means the item is answered with an error frame, not run.
func (s *Server) buildBatchItem(q *BatchQueryJSON, tr *obs.Tracer, out *core.BatchItem) error {
	ids, err := s.resolveGenes(q.Genes)
	if err != nil {
		return err
	}
	params, err := s.params(q.Params, len(ids), tr)
	if err != nil {
		return err
	}
	out.Params = params
	out.K = q.Params.TopK
	if len(q.Columns) > 0 {
		if len(q.Edges) > 0 {
			return fmt.Errorf("batch item has both columns and edges")
		}
		if len(q.Columns) != len(ids) {
			return fmt.Errorf("%d gene names for %d columns", len(ids), len(q.Columns))
		}
		mq, err := gene.NewMatrix(-1, ids, q.Columns)
		if err != nil {
			return err
		}
		out.Matrix = mq
		return nil
	}
	if len(q.Edges) == 0 {
		return fmt.Errorf("batch item has neither columns nor edges")
	}
	g := grn.NewGraph(ids)
	for _, e := range q.Edges {
		if e.S < 0 || e.S >= len(ids) || e.T < 0 || e.T >= len(ids) || e.S == e.T {
			return fmt.Errorf("bad edge (%d,%d)", e.S, e.T)
		}
		g.SetEdge(e.S, e.T, e.Prob)
	}
	out.Graph = g
	return nil
}

// maxBatchItems is the effective MaxBatchItems (default 256).
func (s *Server) maxBatchItems() int {
	if s.MaxBatchItems > 0 {
		return s.MaxBatchItems
	}
	return 256
}
