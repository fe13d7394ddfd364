package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"sync"
)

// The serve-path codec (DESIGN.md §8.3). Every public query and mutation
// body carries l × n floats, and encoding/json spends most of its time on
// reflection and repeated scanner passes rather than on the numbers. So
// the bodies that carry them are read in one pass over one pooled buffer,
// and the replies that carry answers are appended into one, both in the
// canonical form json.Marshal produces. Anything outside that form is
// handed to encoding/json, which stays the definition of the wire: the
// fast paths accept exactly what it accepts, decode to exactly what it
// decodes, and write exactly the bytes it writes.

// maxPooledBuffer bounds the capacity of a buffer returned to a pool, so
// that one outsized body or reply is not kept alive for the next request.
const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuffer {
		*bp = (*bp)[:0]
		bufPool.Put(bp)
	}
}

// canonicalBody is a request type the one-pass reader decodes.
// readCanonical reports false on any input outside the canonical subset;
// the receiver may then hold a partial decode, which decodeBody discards.
type canonicalBody interface {
	readCanonical(r *reader) bool
}

// decodeJSON is the reference decode: what every POST body went through
// before the one-pass reader, and what non-canonical bodies still do.
func decodeJSON(body io.Reader, into any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// decodeCanonical reads the whole body into a pooled buffer and decodes it
// with decodeBody. Nothing decoded aliases the buffer.
func decodeCanonical(body io.Reader, into canonicalBody) error {
	bp := getBuf()
	defer putBuf(bp)
	var err error
	*bp, err = readAll(*bp, body)
	_, err = decodeBody(*bp, err, into)
	return err
}

// readAll appends everything body yields to b, stopping at its first
// error; io.EOF is not an error.
func readAll(b []byte, body io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// decodeBody decodes body, which ended in readErr (nil at a clean EOF),
// into the zero value into points to. A canonical body is read in one pass
// (fast = true). Any other body, or one whose read failed, resets into and
// goes through decodeJSON over the same bytes followed by readErr, so the
// value and the error text are encoding/json's, as they were when the
// server decoded from the request stream.
func decodeBody(body []byte, readErr error, into canonicalBody) (fast bool, err error) {
	if readErr == nil {
		r := reader{b: body}
		if into.readCanonical(&r) && r.atEnd() {
			return true, nil
		}
		reflect.ValueOf(into).Elem().SetZero()
	}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	return false, decodeJSON(src, into)
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// reader is the one-pass parser. It accepts JSON objects whose keys are
// exactly the target's JSON tags, each at most once; strings of printable
// ASCII without escapes; JSON-grammar numbers that strconv parses into the
// field's type without error; true and false. Every method reports false
// on anything else: null, an unknown or differently cased key, an escape,
// a number out of range or with a fraction in an integer field.
type reader struct {
	b []byte
	i int
}

func (r *reader) skipSpace() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// consume skips white space and then c, reporting whether c was there.
func (r *reader) consume(c byte) bool {
	r.skipSpace()
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// atEnd reports whether only white space is left.
func (r *reader) atEnd() bool {
	r.skipSpace()
	return r.i == len(r.b)
}

// object reads an object, calling member with each key; member reads the
// value, and rejects a key it has seen before in this object (once).
func (r *reader) object(member func(key []byte) bool) bool {
	if !r.consume('{') {
		return false
	}
	if r.consume('}') {
		return true
	}
	for {
		key, ok := r.rawString()
		if !ok || !r.consume(':') || !member(key) {
			return false
		}
		if !r.consume(',') {
			return r.consume('}')
		}
	}
}

// once sets bit in *seen, reporting false if it was already set: the
// reader leaves repeated keys to encoding/json.
func once(seen *uint16, bit uint16) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// array reads an array, calling elem for each element; elem reads it.
func (r *reader) array(elem func() bool) bool {
	if !r.consume('[') {
		return false
	}
	if r.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !r.consume(',') {
			return r.consume(']')
		}
	}
}

// rawString returns the bytes of a string of printable ASCII without
// escapes, aliasing the buffer.
func (r *reader) rawString() ([]byte, bool) {
	if !r.consume('"') {
		return nil, false
	}
	start := r.i
	for r.i < len(r.b) {
		c := r.b[r.i]
		if c == '"' {
			r.i++
			return r.b[start : r.i-1], true
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			return nil, false
		}
		r.i++
	}
	return nil, false
}

// number returns the bytes of a JSON-grammar number and whether it is an
// integer literal (no fraction, no exponent).
func (r *reader) number() (tok []byte, integer, ok bool) {
	r.skipSpace()
	b, start := r.b, r.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false, false
		}
		i = j
	}
	r.i = i
	return b[start:i], integer, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

func (r *reader) float(dst *float64) bool {
	tok, _, ok := r.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	*dst = f
	return err == nil
}

func (r *reader) int(dst *int) bool {
	tok, integer, ok := r.number()
	if !ok || !integer {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}

func (r *reader) uint64(dst *uint64) bool {
	tok, integer, ok := r.number()
	if !ok || !integer || tok[0] == '-' {
		return false
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	*dst = n
	return err == nil
}

func (r *reader) bool(dst *bool) bool {
	r.skipSpace()
	switch {
	case bytes.HasPrefix(r.b[r.i:], []byte("true")):
		*dst, r.i = true, r.i+4
	case bytes.HasPrefix(r.b[r.i:], []byte("false")):
		*dst, r.i = false, r.i+5
	default:
		return false
	}
	return true
}

func (r *reader) strings(dst *[]string) bool {
	out := make([]string, 0, 8)
	ok := r.array(func() bool {
		s, ok := r.rawString()
		out = append(out, string(s))
		return ok
	})
	*dst = out
	return ok
}

// columns reads an array of float arrays. Each column is sized from the
// one before it, since a matrix's columns share one length.
func (r *reader) columns(dst *[][]float64) bool {
	out := make([][]float64, 0, 8)
	hint := 16
	ok := r.array(func() bool {
		col := make([]float64, 0, hint)
		ok := r.array(func() bool {
			var f float64
			ok := r.float(&f)
			col = append(col, f)
			return ok
		})
		out = append(out, col)
		if len(col) > 0 {
			hint = len(col)
		}
		return ok
	})
	*dst = out
	return ok
}

func (r *reader) edges(dst *[]EdgeJSON) bool {
	out := make([]EdgeJSON, 0, 8)
	ok := r.array(func() bool {
		var e EdgeJSON
		var seen uint16
		ok := r.object(func(key []byte) bool {
			switch string(key) {
			case "s":
				return once(&seen, 1) && r.int(&e.S)
			case "t":
				return once(&seen, 2) && r.int(&e.T)
			case "prob":
				return once(&seen, 4) && r.float(&e.Prob)
			}
			return false
		})
		out = append(out, e)
		return ok
	})
	*dst = out
	return ok
}

func (p *ParamsJSON) readCanonical(r *reader) bool {
	var seen uint16
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "gamma":
			return once(&seen, 1<<0) && r.float(&p.Gamma)
		case "alpha":
			return once(&seen, 1<<1) && r.float(&p.Alpha)
		case "samples":
			return once(&seen, 1<<2) && r.int(&p.Samples)
		case "eps":
			return once(&seen, 1<<3) && r.float(&p.Eps)
		case "delta":
			return once(&seen, 1<<4) && r.float(&p.Delta)
		case "seed":
			return once(&seen, 1<<5) && r.uint64(&p.Seed)
		case "analytic":
			return once(&seen, 1<<6) && r.bool(&p.Analytic)
		case "oneSided":
			return once(&seen, 1<<7) && r.bool(&p.OneSided)
		case "topK":
			return once(&seen, 1<<8) && r.int(&p.TopK)
		case "workers":
			return once(&seen, 1<<9) && r.int(&p.Workers)
		case "trace":
			return once(&seen, 1<<10) && r.bool(&p.Trace)
		}
		return false
	})
}

func (q *QueryRequest) readCanonical(r *reader) bool {
	var seen uint16
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "genes":
			return once(&seen, 1) && r.strings(&q.Genes)
		case "columns":
			return once(&seen, 2) && r.columns(&q.Columns)
		case "params":
			return once(&seen, 4) && q.Params.readCanonical(r)
		}
		return false
	})
}

func (q *GraphQueryRequest) readCanonical(r *reader) bool {
	var seen uint16
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "genes":
			return once(&seen, 1) && r.strings(&q.Genes)
		case "edges":
			return once(&seen, 2) && r.edges(&q.Edges)
		case "params":
			return once(&seen, 4) && q.Params.readCanonical(r)
		}
		return false
	})
}

func (q *BatchQueryJSON) readCanonical(r *reader) bool {
	var seen uint16
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "genes":
			return once(&seen, 1) && r.strings(&q.Genes)
		case "columns":
			return once(&seen, 2) && r.columns(&q.Columns)
		case "edges":
			return once(&seen, 4) && r.edges(&q.Edges)
		case "params":
			return once(&seen, 8) && q.Params.readCanonical(r)
		}
		return false
	})
}

func (b *BatchRequest) readCanonical(r *reader) bool {
	var seen uint16
	return r.object(func(key []byte) bool {
		if string(key) != "queries" || !once(&seen, 1) {
			return false
		}
		b.Queries = make([]BatchQueryJSON, 0, 8)
		return r.array(func() bool {
			b.Queries = append(b.Queries, BatchQueryJSON{})
			return b.Queries[len(b.Queries)-1].readCanonical(r)
		})
	})
}

func (a *AddMatrixRequest) readCanonical(r *reader) bool {
	var seen uint16
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "source":
			return once(&seen, 1) && r.int(&a.Source)
		case "genes":
			return once(&seen, 2) && r.strings(&a.Genes)
		case "columns":
			return once(&seen, 4) && r.columns(&a.Columns)
		}
		return false
	})
}

func (a *RemoveMatrixRequest) readCanonical(r *reader) bool {
	var seen uint16
	return r.object(func(key []byte) bool {
		return string(key) == "source" && once(&seen, 1) && r.int(&a.Source)
	})
}

// encoder appends the canonical encoding/json form of the answer-carrying
// replies. bad is set by a value encoding/json refuses (NaN, ±Inf); the
// caller then encodes the whole value with encoding/json instead, which
// writes what it always wrote for such a value.
type encoder struct {
	b   []byte
	bad bool
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) int(n int) { e.b = strconv.AppendInt(e.b, int64(n), 10) }

func (e *encoder) uint64(n uint64) { e.b = strconv.AppendUint(e.b, n, 10) }

func (e *encoder) bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

// float writes f as encoding/json does: the shortest representation, in
// 'f' format for magnitudes in [1e-6, 1e21) and zero, otherwise in 'e'
// format with a one-digit negative exponent written e-7, not e-07.
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.bad = true
		return
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		n := len(e.b)
		if n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// str writes s quoted. A string holding anything but printable ASCII
// outside "\<>& goes through encoding/json, which escapes it.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e.marshal(s)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// marshal writes v with encoding/json; Marshal's compact, HTML-escaped
// form is the form an Encoder writes for the same value nested in a reply.
func (e *encoder) marshal(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		e.bad = true
		return
	}
	e.b = append(e.b, data...)
}

func (e *encoder) strs(ss []string) {
	if ss == nil {
		e.raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i, s := range ss {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.str(s)
	}
	e.b = append(e.b, ']')
}

func (e *encoder) edges(es []EdgeJSON) {
	if es == nil {
		e.raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i, ed := range es {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.raw(`{"s":`)
		e.int(ed.S)
		e.raw(`,"t":`)
		e.int(ed.T)
		e.raw(`,"prob":`)
		e.float(ed.Prob)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, ']')
}

func (e *encoder) answers(as []AnswerJSON) {
	if as == nil {
		e.raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i := range as {
		a := &as[i]
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.raw(`{"source":`)
		e.int(a.Source)
		e.raw(`,"prob":`)
		e.float(a.Prob)
		e.raw(`,"genes":`)
		e.strs(a.Genes)
		e.raw(`,"edges":`)
		e.edges(a.Edges)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, ']')
}

func (e *encoder) stats(st *QueryStats) {
	e.raw(`{"queryVertices":`)
	e.int(st.QueryVertices)
	e.raw(`,"queryEdges":`)
	e.int(st.QueryEdges)
	e.raw(`,"nodePairsVisited":`)
	e.int(st.NodePairsVisited)
	e.raw(`,"nodePairsPruned":`)
	e.int(st.NodePairsPruned)
	e.raw(`,"pointPairsChecked":`)
	e.int(st.PointPairsChecked)
	e.raw(`,"pointPairsPruned":`)
	e.int(st.PointPairsPruned)
	e.raw(`,"candidateGenes":`)
	e.int(st.CandidateGenes)
	e.raw(`,"candidateMatrices":`)
	e.int(st.CandidateMatrices)
	e.raw(`,"matricesPrunedL5":`)
	e.int(st.MatricesPrunedL5)
	e.raw(`,"answers":`)
	e.int(st.Answers)
	e.raw(`,"ioPages":`)
	e.uint64(st.IOCost)
	e.raw(`,"ioBufferHits":`)
	e.uint64(st.IOHits)
	e.raw(`,"cacheHits":`)
	e.int(st.CacheHits)
	e.raw(`,"cacheMisses":`)
	e.int(st.CacheMisses)
	e.raw(`,"draws":`)
	e.int(st.Draws)
	e.raw(`,"inferSeconds":`)
	e.float(st.InferSeconds)
	e.raw(`,"traversalSeconds":`)
	e.float(st.TraversalSeconds)
	e.raw(`,"refinementSeconds":`)
	e.float(st.RefinementSeconds)
	e.raw(`,"markovPruneSeconds":`)
	e.float(st.MarkovSeconds)
	e.raw(`,"monteCarloSeconds":`)
	e.float(st.MonteCarloSeconds)
	e.raw(`,"totalSeconds":`)
	e.float(st.TotalSeconds)
	if st.Plan != nil {
		e.raw(`,"plan":`)
		e.plan(st.Plan)
	}
	e.b = append(e.b, '}')
}

func (e *encoder) plan(p *PlanJSON) {
	e.raw(`{"mode":`)
	e.str(p.Mode)
	e.raw(`,"samples":`)
	e.int(p.Samples)
	if p.FromAccuracy {
		e.raw(`,"fromAccuracy":true`)
	}
	if p.Eps != 0 {
		e.raw(`,"eps":`)
		e.float(p.Eps)
	}
	if p.Delta != 0 {
		e.raw(`,"delta":`)
		e.float(p.Delta)
	}
	e.raw(`,"pivotPruning":`)
	e.bool(p.PivotPruning)
	e.raw(`,"signatures":`)
	e.bool(p.Signatures)
	e.raw(`,"markovPruning":`)
	e.bool(p.MarkovPruning)
	e.raw(`,"batchKernel":`)
	e.bool(p.BatchKernel)
	if len(p.Skipped) > 0 {
		e.raw(`,"skipped":`)
		e.strs(p.Skipped)
	}
	if p.Cost != nil {
		e.raw(`,"cost":`)
		e.marshal(p.Cost)
	}
	e.b = append(e.b, '}')
}

func (e *encoder) trace(spans []SpanJSON) {
	e.raw(`,"trace":[`)
	for i := range spans {
		sp := &spans[i]
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.raw(`{"stage":`)
		e.str(sp.Stage)
		e.raw(`,"beginSeconds":`)
		e.float(sp.BeginSeconds)
		e.raw(`,"durSeconds":`)
		e.float(sp.DurSeconds)
		e.raw(`,"in":`)
		e.int(sp.In)
		e.raw(`,"out":`)
		e.int(sp.Out)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, ']')
}

// The append functions end each value with the newline json.Encoder
// writes after it.

func appendQueryResponse(b []byte, v *QueryResponse) ([]byte, bool) {
	e := encoder{b: b}
	e.raw(`{"answers":`)
	e.answers(v.Answers)
	e.raw(`,"stats":`)
	e.stats(&v.Stats)
	if len(v.Trace) > 0 {
		e.trace(v.Trace)
	}
	e.raw("}\n")
	return e.b, !e.bad
}

func appendBatchFrame(b []byte, v *BatchFrameJSON) ([]byte, bool) {
	e := encoder{b: b}
	e.raw(`{"index":`)
	e.int(v.Index)
	if len(v.Answers) > 0 {
		e.raw(`,"answers":`)
		e.answers(v.Answers)
	}
	if v.Stats != nil {
		e.raw(`,"stats":`)
		e.stats(v.Stats)
	}
	if len(v.Trace) > 0 {
		e.trace(v.Trace)
	}
	if v.Error != "" {
		e.raw(`,"error":`)
		e.str(v.Error)
	}
	e.raw("}\n")
	return e.b, !e.bad
}

func appendBatchDone(b []byte, v *BatchDoneJSON) ([]byte, bool) {
	e := encoder{b: b}
	e.raw(`{"done":`)
	e.bool(v.Done)
	e.raw(`,"queries":`)
	e.int(v.Queries)
	e.raw(`,"errors":`)
	e.int(v.Errors)
	e.raw(`,"totalSeconds":`)
	e.float(v.TotalSeconds)
	e.raw("}\n")
	return e.b, !e.bad
}

// encodeFrame writes v to w in one Write: the appended form from a pooled
// buffer, or, when the appender refuses v, json.NewEncoder(w).Encode(v),
// which writes nothing for a value it cannot encode, as it always did.
func encodeFrame[T any](w io.Writer, v *T, appendTo func([]byte, *T) ([]byte, bool)) {
	bp := getBuf()
	defer putBuf(bp)
	b, ok := appendTo((*bp)[:0], v)
	*bp = b
	if !ok {
		_ = json.NewEncoder(w).Encode(v)
		return
	}
	_, _ = w.Write(b)
}

// writeQueryResponse is writeJSON for a /query or /query-graph reply.
func writeQueryResponse(w http.ResponseWriter, v QueryResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	encodeFrame(w, &v, appendQueryResponse)
}
