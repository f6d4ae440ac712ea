package httpapi

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"

	"planet/internal/jsonenc"
)

// Hand-written codecs for the bodies every commit and read crosses: the
// server's SubmitRequest decode and Status, SubmitResponse, ReadResponse and
// error encodes, and the client's SubmitRequest encode and Status and
// ReadResponse decodes. Every other body, and every cold route, goes
// through encoding/json.
//
// The encoders emit exactly the bytes encoding/json does. The scanners
// parse only the canonical shape those encoders and json.Marshal emit:
// exact-case known keys, each at most once, strings without escapes, and
// numbers the target field holds as encoding/json would parse them. Any
// other body makes a scanner give up, and the same bytes go to
// encoding/json, so the bodies accepted and the values decoded are
// encoding/json's by construction. FuzzGatewayJSON holds both sides to it.

// bufPool recycles request and response buffers; one past maxPooledBuf is
// dropped rather than kept alive by the pool.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const maxPooledBuf = 64 << 10

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// readAll appends everything r yields to buf.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// --- encoders ---

// appendKey appends a comma and the key of the next field.
func appendKey(b []byte, key string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	return append(b, '"', ':')
}

func appendFloatField(b []byte, key string, f float64) ([]byte, error) {
	return jsonenc.Float(appendKey(b, key), f)
}

// appendStatus appends json.Marshal(st). A NaN or infinite float fails it,
// as it fails json.Marshal.
func appendStatus(b []byte, st *Status) ([]byte, error) {
	b = append(b, `{"txn":`...)
	b = jsonenc.String(b, st.Txn)
	b = appendKey(b, "stage")
	b = jsonenc.String(b, st.Stage)
	b, err := appendFloatField(b, "likelihood", st.Likelihood)
	if err != nil {
		return b, err
	}
	b = strconv.AppendBool(appendKey(b, "done"), st.Done)
	b = strconv.AppendBool(appendKey(b, "committed"), st.Committed)
	b = strconv.AppendBool(appendKey(b, "rejected"), st.Rejected)
	b = strconv.AppendBool(appendKey(b, "speculated"), st.Speculated)
	b = strconv.AppendBool(appendKey(b, "deadlineHit"), st.DeadlineHit)
	if st.Error != "" {
		b = jsonenc.String(appendKey(b, "error"), st.Error)
	}
	if b, err = appendFloatField(b, "durationMs", st.DurationMs); err != nil {
		return b, err
	}
	b = strconv.AppendInt(appendKey(b, "votesSeen"), int64(st.VotesSeen), 10)
	b = strconv.AppendInt(appendKey(b, "votesOverall"), int64(st.VotesOverall), 10)
	return append(b, '}'), nil
}

// appendSubmitResponse appends json.Marshal(r).
func appendSubmitResponse(b []byte, r SubmitResponse) []byte {
	b = jsonenc.String(append(b, `{"txn":`...), r.Txn)
	return append(b, '}')
}

// appendReadResponse appends json.Marshal(r).
func appendReadResponse(b []byte, r *ReadResponse) []byte {
	b = jsonenc.String(append(b, `{"key":`...), r.Key)
	b = strconv.AppendBool(appendKey(b, "found"), r.Found)
	if len(r.Bytes) > 0 {
		b = jsonenc.Bytes(appendKey(b, "bytes"), r.Bytes)
	}
	if r.Int != 0 {
		b = strconv.AppendInt(appendKey(b, "int"), r.Int, 10)
	}
	b = strconv.AppendInt(appendKey(b, "version"), r.Version, 10)
	return append(b, '}')
}

// appendErrorBody appends json.Marshal(e).
func appendErrorBody(b []byte, e errorBody) []byte {
	b = jsonenc.String(append(b, `{"error":`...), e.Error)
	return append(b, '}')
}

// appendSubmitRequest appends json.Marshal(r). A NaN or infinite
// SpeculateAt fails it, as it fails json.Marshal.
func appendSubmitRequest(b []byte, r *SubmitRequest) ([]byte, error) {
	b = append(b, `{"ops":`...)
	if r.Ops == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Ops {
			op := &r.Ops[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonenc.String(append(b, `{"kind":`...), op.Kind)
			b = jsonenc.String(appendKey(b, "key"), op.Key)
			if len(op.Value) > 0 {
				b = jsonenc.Bytes(appendKey(b, "value"), op.Value)
			}
			if op.Delta != 0 {
				b = strconv.AppendInt(appendKey(b, "delta"), op.Delta, 10)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if r.SpeculateAt != 0 {
		var err error
		if b, err = appendFloatField(b, "speculateAt", r.SpeculateAt); err != nil {
			return b, err
		}
	}
	if r.DeadlineMs != 0 {
		b = strconv.AppendInt(appendKey(b, "deadlineMs"), r.DeadlineMs, 10)
	}
	return append(b, '}'), nil
}

// --- decoders ---

// decodeSubmitRequest decodes a POST /v1/txn body as json.Decoder.Decode
// does: the first JSON value counts, and anything after it is not read.
func decodeSubmitRequest(body []byte, req *SubmitRequest) error {
	if scanSubmitRequest(body, req) {
		return nil
	}
	// A value of its own, so only this path pays for handing one to
	// encoding/json.
	fallback := new(SubmitRequest)
	err := json.NewDecoder(bytes.NewReader(body)).Decode(fallback)
	*req = *fallback
	return err
}

// unmarshal decodes a response body as json.Unmarshal does, through a
// scanner for the two shapes the commit and read paths return.
func unmarshal(body []byte, into any) error {
	switch v := into.(type) {
	case *Status:
		if scanStatus(body, v) {
			return nil
		}
		*v = Status{}
	case *ReadResponse:
		if scanReadResponse(body, v) {
			return nil
		}
		*v = ReadResponse{}
	}
	return json.Unmarshal(body, into)
}

// scanner is a cursor over a canonical JSON body. A method that meets
// anything outside the canonical shape sets bad, and once bad is set
// nothing the scan decoded is used.
type scanner struct {
	data []byte
	off  int
	bad  bool
}

func (s *scanner) ws() {
	for s.off < len(s.data) {
		switch s.data[s.off] {
		case ' ', '\t', '\n', '\r':
			s.off++
		default:
			return
		}
	}
}

// lit consumes c (after whitespace) if it comes next.
func (s *scanner) lit(c byte) bool {
	s.ws()
	if !s.bad && s.off < len(s.data) && s.data[s.off] == c {
		s.off++
		return true
	}
	return false
}

// end reports whether only whitespace follows.
func (s *scanner) end() bool {
	s.ws()
	return !s.bad && s.off == len(s.data)
}

// str returns the contents of a string with no escapes or control bytes,
// in valid UTF-8: the strings encoding/json decodes to their bytes as is.
func (s *scanner) str() []byte {
	if !s.lit('"') {
		s.bad = true
		return nil
	}
	start, ascii := s.off, true
	for ; s.off < len(s.data); s.off++ {
		switch c := s.data[s.off]; {
		case c == '"':
			raw := s.data[start:s.off]
			s.off++
			if !ascii && !utf8.Valid(raw) {
				s.bad = true
			}
			return raw
		case c == '\\' || c < 0x20:
			s.bad = true
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	s.bad = true
	return nil
}

func (s *scanner) text() string {
	b := s.str()
	if s.bad {
		return ""
	}
	return string(b)
}

// bytes decodes a base64 string as encoding/json decodes a []byte field.
func (s *scanner) bytes() []byte {
	raw := s.str()
	if s.bad {
		return nil
	}
	b := make([]byte, base64.StdEncoding.DecodedLen(len(raw)))
	n, err := base64.StdEncoding.Decode(b, raw)
	if err != nil {
		s.bad = true
		return nil
	}
	return b[:n]
}

// number returns the literal of a JSON number and whether it is an
// integer literal (no fraction, no exponent).
func (s *scanner) number() (lit []byte, isInt bool) {
	s.ws()
	start := s.off
	digits := func() bool {
		n := s.off
		for s.off < len(s.data) && s.data[s.off] >= '0' && s.data[s.off] <= '9' {
			s.off++
		}
		return s.off > n
	}
	if s.off < len(s.data) && s.data[s.off] == '-' {
		s.off++
	}
	switch {
	case s.off < len(s.data) && s.data[s.off] == '0':
		s.off++
	case !digits():
		s.bad = true
		return nil, false
	}
	isInt = true
	if s.off < len(s.data) && s.data[s.off] == '.' {
		s.off++
		isInt = false
		if !digits() {
			s.bad = true
			return nil, false
		}
	}
	if s.off < len(s.data) && (s.data[s.off] == 'e' || s.data[s.off] == 'E') {
		s.off++
		isInt = false
		if s.off < len(s.data) && (s.data[s.off] == '+' || s.data[s.off] == '-') {
			s.off++
		}
		if !digits() {
			s.bad = true
			return nil, false
		}
	}
	return s.data[start:s.off], isInt
}

// integer decodes an integer literal that fits bits; encoding/json refuses
// a fraction or an exponent in an integer field, and so does the fallback.
func (s *scanner) integer(bits int) int64 {
	lit, isInt := s.number()
	if s.bad || !isInt {
		s.bad = true
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		s.bad = true
	}
	return n
}

func (s *scanner) float() float64 {
	lit, _ := s.number()
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		s.bad = true
	}
	return f
}

func (s *scanner) bool() bool {
	s.ws()
	rest := s.data[s.off:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		s.off += 4
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		s.off += 5
		return false
	}
	s.bad = true
	return false
}

// object scans one object, handing each key to field, which decodes the
// value and returns the key's bit, or 0 for a key it does not know. A key
// seen twice gives up: encoding/json merges a repeat into the value decoded
// before it, which the scanner does not reproduce.
func (s *scanner) object(field func(key []byte) uint32) {
	if !s.lit('{') {
		s.bad = true
		return
	}
	if s.lit('}') {
		return
	}
	var seen uint32
	for !s.bad {
		key := s.str()
		if !s.lit(':') {
			s.bad = true
			return
		}
		bit := field(key)
		if bit == 0 || seen&bit != 0 {
			s.bad = true
			return
		}
		seen |= bit
		if s.lit('}') {
			return
		}
		if !s.lit(',') {
			s.bad = true
		}
	}
}

// opKind returns the kind's string, without allocating for the two kinds
// there are.
func opKind(b []byte) string {
	switch string(b) {
	case "add":
		return "add"
	case "set":
		return "set"
	}
	return string(b)
}

func (s *scanner) op(op *Op) {
	s.object(func(key []byte) uint32 {
		switch string(key) {
		case "kind":
			if b := s.str(); !s.bad {
				op.Kind = opKind(b)
			}
			return 1
		case "key":
			op.Key = s.text()
			return 2
		case "value":
			op.Value = s.bytes()
			return 4
		case "delta":
			op.Delta = s.integer(64)
			return 8
		}
		return 0
	})
}

func (s *scanner) ops() []Op {
	if !s.lit('[') {
		s.bad = true
		return nil
	}
	ops := []Op{}
	if s.lit(']') {
		return ops
	}
	for !s.bad {
		ops = append(ops, Op{})
		s.op(&ops[len(ops)-1])
		if s.lit(']') {
			return ops
		}
		if !s.lit(',') {
			s.bad = true
		}
	}
	return nil
}

// scanSubmitRequest decodes a canonical SubmitRequest body into req. Only
// whitespace may follow it: json.Decoder ignores whatever does, so such a
// body is left to it.
func scanSubmitRequest(body []byte, req *SubmitRequest) bool {
	s := scanner{data: body}
	s.object(func(key []byte) uint32 {
		switch string(key) {
		case "ops":
			req.Ops = s.ops()
			return 1
		case "speculateAt":
			req.SpeculateAt = s.float()
			return 2
		case "deadlineMs":
			req.DeadlineMs = s.integer(64)
			return 4
		}
		return 0
	})
	return s.end()
}

// scanStatus decodes a canonical Status body into st.
func scanStatus(body []byte, st *Status) bool {
	s := scanner{data: body}
	s.object(func(key []byte) uint32 {
		switch string(key) {
		case "txn":
			st.Txn = s.text()
			return 1 << 0
		case "stage":
			st.Stage = s.text()
			return 1 << 1
		case "likelihood":
			st.Likelihood = s.float()
			return 1 << 2
		case "done":
			st.Done = s.bool()
			return 1 << 3
		case "committed":
			st.Committed = s.bool()
			return 1 << 4
		case "rejected":
			st.Rejected = s.bool()
			return 1 << 5
		case "speculated":
			st.Speculated = s.bool()
			return 1 << 6
		case "deadlineHit":
			st.DeadlineHit = s.bool()
			return 1 << 7
		case "error":
			st.Error = s.text()
			return 1 << 8
		case "durationMs":
			st.DurationMs = s.float()
			return 1 << 9
		case "votesSeen":
			st.VotesSeen = int(s.integer(strconv.IntSize))
			return 1 << 10
		case "votesOverall":
			st.VotesOverall = int(s.integer(strconv.IntSize))
			return 1 << 11
		}
		return 0
	})
	return s.end()
}

// scanReadResponse decodes a canonical ReadResponse body into r.
func scanReadResponse(body []byte, r *ReadResponse) bool {
	s := scanner{data: body}
	s.object(func(key []byte) uint32 {
		switch string(key) {
		case "key":
			r.Key = s.text()
			return 1
		case "found":
			r.Found = s.bool()
			return 2
		case "bytes":
			r.Bytes = s.bytes()
			return 4
		case "int":
			r.Int = s.integer(64)
			return 8
		case "version":
			r.Version = s.integer(64)
			return 16
		}
		return 0
	})
	return s.end()
}
