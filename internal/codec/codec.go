// Package codec is the one JSON codec of both serving tiers (DESIGN.md
// §8.3, §15). The public query and mutation bodies and the cluster wire
// (the /cluster/exec envelope, its NDJSON frames and the /cluster/mutate
// body) carry floats and IDs by the thousand, and encoding/json spends
// most of its time on reflection and repeated scanner passes rather than
// on the numbers. So those values are read in one pass over one pooled
// buffer (Reader) and written by appending into one (Encoder), both in the
// canonical form json.Marshal produces. Anything outside that form is
// handed to encoding/json, which stays the definition of the wire: the
// fast paths accept exactly what it accepts, decode to exactly what it
// decodes, and write exactly the bytes it writes.
package codec

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"sync"
)

// MaxPooledBuffer bounds the capacity of a buffer returned to the pool,
// so that one outsized body, reply or frame is not kept alive for the next
// request.
const MaxPooledBuffer = 1 << 20

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

// GetBuf takes an empty buffer from the pool.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf returns a buffer to the pool, unless it grew past
// MaxPooledBuffer.
func PutBuf(bp *[]byte) {
	if cap(*bp) <= MaxPooledBuffer {
		*bp = (*bp)[:0]
		bufPool.Put(bp)
	}
}

// Canonical is a type the one-pass reader decodes. ReadCanonical reports
// false on any input outside the canonical subset; the receiver may then
// hold a partial decode, which the callers here discard.
type Canonical interface {
	ReadCanonical(r *Reader) bool
}

// DecodeJSON is the reference request decode: a json.Decoder that
// disallows unknown fields.
func DecodeJSON(body io.Reader, into any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// Decode reads the whole body into a pooled buffer and decodes it with
// DecodeBody. Nothing decoded aliases the buffer.
func Decode(body io.Reader, into Canonical) error {
	bp := GetBuf()
	defer PutBuf(bp)
	var err error
	*bp, err = readAll(*bp, body)
	_, err = DecodeBody(*bp, err, into)
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

// DecodeBody decodes body, which ended in readErr (nil at a clean EOF),
// into the zero value into points to, as DecodeJSON decodes it from a
// stream. A canonical body is read in one pass (fast = true). Any other
// body, or one whose read failed, resets into and goes through DecodeJSON
// over the same bytes followed by readErr, so the value and the error
// text are encoding/json's.
func DecodeBody(body []byte, readErr error, into Canonical) (fast bool, err error) {
	if readErr == nil {
		r := Reader{b: body}
		if into.ReadCanonical(&r) && r.AtEnd() {
			return true, nil
		}
		reflect.ValueOf(into).Elem().SetZero()
	}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	return false, DecodeJSON(src, into)
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// Unmarshal is json.Unmarshal(data, into) for a canonical type: the
// one-pass reader when data is canonical, otherwise encoding/json itself
// on a reset value.
func Unmarshal(data []byte, into Canonical) error {
	r := Reader{b: data}
	if into.ReadCanonical(&r) && r.AtEnd() {
		return nil
	}
	reflect.ValueOf(into).Elem().SetZero()
	return json.Unmarshal(data, into)
}

// Reader is the one-pass parser. It accepts JSON objects whose keys are
// exactly the target's JSON tags, each at most once; strings of printable
// ASCII without escapes; JSON-grammar numbers that strconv parses into the
// field's type without error; true and false; null for a slice. Every
// method reports false on anything else: any other null, an unknown or
// differently cased key, an escape, a number out of range or with a
// fraction in an integer field.
type Reader struct {
	b []byte
	i int
}

func (r *Reader) skipSpace() {
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
func (r *Reader) consume(c byte) bool {
	r.skipSpace()
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// AtEnd reports whether only white space is left.
func (r *Reader) AtEnd() bool {
	r.skipSpace()
	return r.i == len(r.b)
}

// Object reads an object, calling member with each key; member reads the
// value, and rejects a key it has seen before in this object (Once).
func (r *Reader) Object(member func(key []byte) bool) bool {
	if !r.consume('{') {
		return false
	}
	if r.consume('}') {
		return true
	}
	for {
		key, ok := r.RawString()
		if !ok || !r.consume(':') || !member(key) {
			return false
		}
		if !r.consume(',') {
			return r.consume('}')
		}
	}
}

// Once sets bit in *seen, reporting false if it was already set: the
// reader leaves repeated keys to encoding/json.
func Once(seen *uint32, bit uint32) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// Array reads an array, calling elem for each element; elem reads it.
func (r *Reader) Array(elem func() bool) bool {
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

// Null reads a null, reporting whether there was one. A slice field of a
// fresh value decodes null as encoding/json does by staying nil.
func (r *Reader) Null() bool {
	r.skipSpace()
	if bytes.HasPrefix(r.b[r.i:], []byte("null")) {
		r.i += 4
		return true
	}
	return false
}

// RawString returns the bytes of a string of printable ASCII without
// escapes, aliasing the buffer.
func (r *Reader) RawString() ([]byte, bool) {
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

// String reads a string into dst, copied out of the buffer.
func (r *Reader) String(dst *string) bool {
	s, ok := r.RawString()
	*dst = string(s)
	return ok
}

// number returns the bytes of a JSON-grammar number and whether it is an
// integer literal (no fraction, no exponent).
func (r *Reader) number() (tok []byte, integer, ok bool) {
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

// Float reads a number into dst.
func (r *Reader) Float(dst *float64) bool {
	tok, _, ok := r.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	*dst = f
	return err == nil
}

// signed reads an integer literal that fits in bits.
func (r *Reader) signed(bits int) (int64, bool) {
	tok, integer, ok := r.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(tok), 10, bits)
	return n, err == nil
}

// Int reads an integer literal into dst.
func (r *Reader) Int(dst *int) bool {
	n, ok := r.signed(strconv.IntSize)
	*dst = int(n)
	return ok
}

// Int64 reads an integer literal into dst.
func (r *Reader) Int64(dst *int64) bool {
	n, ok := r.signed(64)
	*dst = n
	return ok
}

// Uint64 reads an unsigned integer literal into dst.
func (r *Reader) Uint64(dst *uint64) bool {
	tok, integer, ok := r.number()
	if !ok || !integer || tok[0] == '-' {
		return false
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	*dst = n
	return err == nil
}

// Bool reads true or false into dst.
func (r *Reader) Bool(dst *bool) bool {
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

// Strings reads an array of strings, or null, into dst.
func (r *Reader) Strings(dst *[]string) bool {
	if r.Null() {
		return true
	}
	out := make([]string, 0, 8)
	ok := r.Array(func() bool {
		var s string
		ok := r.String(&s)
		out = append(out, s)
		return ok
	})
	*dst = out
	return ok
}

// Int32s reads an array of int32 literals, or null, into dst.
func (r *Reader) Int32s(dst *[]int32) bool {
	if r.Null() {
		return true
	}
	out := make([]int32, 0, 8)
	ok := r.Array(func() bool {
		n, ok := r.signed(32)
		out = append(out, int32(n))
		return ok
	})
	*dst = out
	return ok
}

// Columns reads an array of float arrays, or null, into dst. Each column
// is sized from the one before it, since a matrix's columns share one
// length.
func (r *Reader) Columns(dst *[][]float64) bool {
	if r.Null() {
		return true
	}
	out := make([][]float64, 0, 8)
	hint := 16
	ok := r.Array(func() bool {
		if r.Null() {
			out = append(out, nil)
			return true
		}
		col := make([]float64, 0, hint)
		ok := r.Array(func() bool {
			var f float64
			ok := r.Float(&f)
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

// maxRawDepth bounds the nesting RawValue follows; deeper values go to
// encoding/json.
const maxRawDepth = 32

// RawValue reads an object or array into dst as a json.RawMessage holds
// it: a copy of its bytes from the opening to the closing bracket. Inside
// it, every string, number, true and false must be canonical; null is
// not, so a plan of null goes to encoding/json.
func (r *Reader) RawValue(dst *[]byte) bool {
	r.skipSpace()
	start := r.i
	if r.i >= len(r.b) || (r.b[r.i] != '{' && r.b[r.i] != '[') || !r.skipValue(0) {
		return false
	}
	*dst = append([]byte(nil), r.b[start:r.i]...)
	return true
}

// skipValue reads past one canonical value of any type.
func (r *Reader) skipValue(depth int) bool {
	if depth > maxRawDepth {
		return false
	}
	r.skipSpace()
	if r.i >= len(r.b) {
		return false
	}
	switch r.b[r.i] {
	case '{':
		return r.Object(func([]byte) bool { return r.skipValue(depth + 1) })
	case '[':
		return r.Array(func() bool { return r.skipValue(depth + 1) })
	case '"':
		_, ok := r.RawString()
		return ok
	case 't', 'f':
		var b bool
		return r.Bool(&b)
	}
	_, _, ok := r.number()
	return ok
}

// Encoder appends the canonical encoding/json form of a value. A value
// encoding/json refuses (NaN, ±Inf) marks the encoding bad; the caller
// then encodes the whole value with encoding/json instead, which writes
// or returns what it always did for such a value.
type Encoder struct {
	b   []byte
	bad bool
}

// NewEncoder returns an encoder appending to b.
func NewEncoder(b []byte) Encoder { return Encoder{b: b} }

// Result returns the appended bytes and whether they are encoding/json's.
func (e *Encoder) Result() ([]byte, bool) { return e.b, !e.bad }

// Len reports the length of the bytes appended so far, b included.
func (e *Encoder) Len() int { return len(e.b) }

// Raw writes s as it is.
func (e *Encoder) Raw(s string) { e.b = append(e.b, s...) }

// Byte writes c.
func (e *Encoder) Byte(c byte) { e.b = append(e.b, c) }

// Int writes n in decimal.
func (e *Encoder) Int(n int) { e.b = strconv.AppendInt(e.b, int64(n), 10) }

// Int64 writes n in decimal.
func (e *Encoder) Int64(n int64) { e.b = strconv.AppendInt(e.b, n, 10) }

// Uint64 writes n in decimal.
func (e *Encoder) Uint64(n uint64) { e.b = strconv.AppendUint(e.b, n, 10) }

// Bool writes true or false.
func (e *Encoder) Bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

// Float writes f as encoding/json does: the shortest representation, in
// 'f' format for magnitudes in [1e-6, 1e21) and zero, otherwise in 'e'
// format with a one-digit negative exponent written e-7, not e-07.
func (e *Encoder) Float(f float64) {
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

// plain reports whether c is written as itself inside a JSON string by
// encoding/json: printable ASCII other than "\<>&.
func plain(c byte) bool {
	return c >= 0x20 && c <= 0x7e && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// Str writes s quoted. A string holding anything but plain bytes goes
// through encoding/json, which escapes it.
func (e *Encoder) Str(s string) {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) {
			e.Marshal(s)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// Marshal writes v with encoding/json; Marshal's compact, HTML-escaped
// form is the form an Encoder writes for the same value nested in a reply.
func (e *Encoder) Marshal(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		e.bad = true
		return
	}
	e.b = append(e.b, data...)
}

// RawValue writes a json.RawMessage as json.Marshal does: compacted and
// HTML-escaped. Raw bytes that are already a canonical value with no
// white space and nothing to escape are copied; any others go through
// encoding/json.
func (e *Encoder) RawValue(raw []byte) {
	r := Reader{b: raw}
	if bytes.ContainsAny(raw, " \t\n\r<>&") || !r.skipValue(0) || r.i != len(raw) {
		e.Marshal(json.RawMessage(raw))
		return
	}
	e.b = append(e.b, raw...)
}

// Strs writes an array of strings, null for a nil slice.
func (e *Encoder) Strs(ss []string) {
	if ss == nil {
		e.Raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i, s := range ss {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.Str(s)
	}
	e.b = append(e.b, ']')
}

// Int32s writes an array of integers, null for a nil slice.
func (e *Encoder) Int32s(ns []int32) {
	if ns == nil {
		e.Raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i, n := range ns {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = strconv.AppendInt(e.b, int64(n), 10)
	}
	e.b = append(e.b, ']')
}

// Columns writes an array of float arrays, null for a nil slice.
func (e *Encoder) Columns(cols [][]float64) {
	if cols == nil {
		e.Raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i, col := range cols {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		if col == nil {
			e.Raw("null")
			continue
		}
		e.b = append(e.b, '[')
		for j, f := range col {
			if j > 0 {
				e.b = append(e.b, ',')
			}
			e.Float(f)
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, ']')
}

// CloseObject ends an object whose members, all optional, were each
// written from start with a leading comma: the first comma becomes the
// opening brace, and no member at all leaves {}.
func (e *Encoder) CloseObject(start int) {
	if len(e.b) == start {
		e.b = append(e.b, '{', '}')
		return
	}
	e.b[start] = '{'
	e.b = append(e.b, '}')
}

// Marshal appends v as appendTo writes it, or, when appendTo refuses v,
// as json.Marshal writes it; the error is json.Marshal's.
func Marshal[T any](b []byte, v *T, appendTo func([]byte, *T) ([]byte, bool)) ([]byte, error) {
	if out, ok := appendTo(b, v); ok {
		return out, nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(b, data...), nil
}

// AppendFrame appends the bytes json.NewEncoder(w).Encode(v) writes: v as
// appendTo writes it (appendTo ends it with the newline), or, when
// appendTo refuses v, json.Marshal's bytes and a newline. A value
// encoding/json cannot encode appends nothing, as Encode writes nothing.
func AppendFrame[T any](b []byte, v *T, appendTo func([]byte, *T) ([]byte, bool)) []byte {
	if out, ok := appendTo(b, v); ok {
		return out
	}
	data, err := json.Marshal(v)
	if err != nil {
		return b
	}
	return append(append(b, data...), '\n')
}

// EncodeFrame writes AppendFrame's bytes for v to w in one Write, from a
// pooled buffer, or writes nothing for a value encoding/json cannot
// encode.
func EncodeFrame[T any](w io.Writer, v *T, appendTo func([]byte, *T) ([]byte, bool)) {
	bp := GetBuf()
	defer PutBuf(bp)
	*bp = AppendFrame((*bp)[:0], v, appendTo)
	if len(*bp) > 0 {
		_, _ = w.Write(*bp)
	}
}
