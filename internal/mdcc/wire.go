package mdcc

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"planet/internal/obs"
	"planet/internal/simnet"
	"planet/internal/txn"
)

// Binary wire codec for the commit protocol's messages, used by the TCP
// transport (internal/realnet). simnet passes payloads by value inside one
// process and never needs it; realnet serializes every payload with this
// codec before it crosses a socket.
//
// Encoding: one tag byte identifying the message type, then the fields in
// struct order. Integers are varints (unsigned unless the field is signed),
// booleans a single 0/1 byte, strings and byte slices length-prefixed. A nil
// byte slice and an empty one encode differently (length+1, with 0 meaning
// nil) so values round-trip exactly. Map fields (syncResp.Records) encode
// with sorted keys so equal messages produce equal bytes.
//
// Decoding is strict: an unknown tag, a truncated buffer, an over-limit
// length, an out-of-range enum, or trailing bytes all return an error and
// never panic — the receiver treats any error as a corrupt frame and closes
// the connection (see realnet).
//
// Version tolerance: commit-path messages may carry an optional trace
// context (TraceCtx) appended *after* their fixed fields. An untraced
// message appends nothing — its frame is byte-identical to the pre-trace
// format — and the decoder reads the context only when bytes remain after
// the fixed fields, so frames from pre-trace senders still decode.

// WireCodec encodes and decodes protocol messages for transmission over a
// byte-oriented transport. The zero value is ready to use.
type WireCodec struct{}

// Append encodes m and appends the bytes to dst, returning the extended
// slice. Only protocol message types are encodable.
func (WireCodec) Append(dst []byte, m any) ([]byte, error) {
	return appendMessage(dst, m)
}

// Decode decodes one message from data, which must contain exactly one
// encoded message (trailing bytes are an error). The message shares no
// memory with data: realnet decodes frames where they lie in its read
// buffer and reuses the buffer at once.
func (WireCodec) Decode(data []byte) (any, error) {
	return decodeMessage(data)
}

// Deferrable reports whether m is a message no step of its sender waits on
// — a decide or a span report — so a byte transport may hold it briefly and
// send it, in order, with the next message to the same destination instead
// of on its own (realnet does; simnet never asks). A held decide delays
// only the remote replica's apply.
func (WireCodec) Deferrable(m any) bool {
	switch m.(type) {
	case decideMsg, spanReportMsg:
		return true
	}
	return false
}

// Wire tags, one per message type. The order is frozen: appending new types
// is fine, renumbering is a protocol break. Tags 2, 3, 4, 7 and 8 carried the
// retired one-message-per-option forms of the vote, classic propose, classic
// result, phase 2a and phase 2b; they stay reserved, and a frame carrying
// one decodes as an unknown tag.
const (
	tagPropose uint8 = 1 + iota
	_                // 2: retired per-option vote
	_                // 3: retired per-option classic propose
	_                // 4: retired per-option classic result
	tagPhase1a
	tagPhase1b
	_ // 7: retired per-option phase 2a
	_ // 8: retired per-option phase 2b
	tagDecide
	tagVoteBatch
	tagClassicProposeBatch
	tagClassicResultBatch
	tagPhase2aBatch
	tagPhase2bBatch
	tagReadReq
	tagReadResp
	tagSyncReq
	tagSyncResp
	tagSpanReport
	tagLeaseRequest
	tagLeaseGrant
)

// Decode-side sanity limits. A frame that claims more than these is corrupt
// (or hostile), not large: the protocol never produces strings or counts
// anywhere near them.
const (
	maxWireString = 1 << 20 // keys, regions, names
	maxWireBytes  = 1 << 24 // op values
	maxWireCount  = 1 << 16 // slice/map lengths
)

// --- encoder ---

type wireEnc struct{ buf []byte }

func (e *wireEnc) u8(v uint8)       { e.buf = append(e.buf, v) }
func (e *wireEnc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *wireEnc) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }

func (e *wireEnc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *wireEnc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// bytes encodes a byte slice preserving nil-ness: length+1, with 0 = nil.
func (e *wireEnc) bytes(b []byte) {
	if b == nil {
		e.uvarint(0)
		return
	}
	e.uvarint(uint64(len(b)) + 1)
	e.buf = append(e.buf, b...)
}

func (e *wireEnc) addr(a simnet.Addr) {
	e.str(string(a.Region))
	e.str(a.Name)
}

func (e *wireEnc) op(o txn.Op) {
	e.u8(uint8(o.Kind))
	e.str(o.Key)
	e.bytes(o.Value)
	e.varint(o.Delta)
	e.varint(o.ReadVersion)
}

func (e *wireEnc) ops(ops []txn.Op) {
	e.uvarint(uint64(len(ops)))
	for _, o := range ops {
		e.op(o)
	}
}

func (e *wireEnc) value(v Value) {
	e.bytes(v.Bytes)
	e.varint(v.Int)
	e.bool(v.IsInt)
	e.varint(v.Version)
}

// tc appends the optional trailing trace context. An untraced message
// (Span == 0) appends nothing, keeping its frame byte-identical to the
// pre-trace wire format; a traced one appends the context after the fixed
// fields, where old decoders would have rejected it and new ones look for
// it (version tolerance by trailing extension).
func (e *wireEnc) tc(t TraceCtx) {
	if t.Span == 0 {
		return
	}
	e.uvarint(t.Span)
	e.varint(t.SentUnixNano)
}

// epoch appends the optional trailing lease epoch. Epoch 0 — leases off —
// appends nothing, keeping the frame byte-identical to the pre-lease wire
// format (same version-tolerance scheme as tc).
func (e *wireEnc) epoch(v uint64) {
	if v == 0 {
		return
	}
	e.uvarint(v)
}

func (e *wireEnc) span(sp obs.Span) {
	e.uvarint(uint64(sp.Txn))
	e.uvarint(sp.ID)
	e.uvarint(sp.Parent)
	e.u8(uint8(sp.Stage))
	e.str(sp.Region)
	e.str(sp.Note)
	e.varint(sp.Start.UnixNano())
	e.varint(sp.End.UnixNano())
}

func appendMessage(dst []byte, m any) ([]byte, error) {
	e := &wireEnc{buf: dst}
	switch p := m.(type) {
	case proposeMsg:
		e.u8(tagPropose)
		e.uvarint(uint64(p.Txn))
		e.addr(p.Coord)
		e.ops(p.Options)
		e.tc(p.TC)
	case phase1aMsg:
		e.u8(tagPhase1a)
		e.str(p.Key)
		e.uvarint(p.Ballot)
		e.addr(p.Master)
		e.epoch(p.Epoch)
	case phase1bMsg:
		e.u8(tagPhase1b)
		e.str(p.Key)
		e.uvarint(p.Ballot)
		e.bool(p.OK)
		e.uvarint(uint64(len(p.Pending)))
		for _, ps := range p.Pending {
			e.uvarint(uint64(ps.Txn))
			e.op(ps.Option)
			e.uvarint(ps.Ballot)
		}
		e.str(string(p.Region))
	case decideMsg:
		e.u8(tagDecide)
		e.uvarint(uint64(p.Txn))
		e.bool(p.Commit)
		e.ops(p.Options)
		// The decide's trailing group also names the coordinator, so
		// replicas know where their decide-time spans go.
		if p.TC.Span != 0 {
			e.tc(p.TC)
			e.addr(p.Coord)
		}
	case voteBatchMsg:
		e.u8(tagVoteBatch)
		e.uvarint(uint64(p.Txn))
		e.str(string(p.Region))
		e.uvarint(uint64(len(p.Votes)))
		for _, v := range p.Votes {
			e.str(v.Key)
			e.bool(v.Accept)
			e.u8(uint8(v.Reason))
		}
		e.tc(p.TC)
	case classicProposeBatchMsg:
		e.u8(tagClassicProposeBatch)
		e.uvarint(uint64(p.Txn))
		e.addr(p.Coord)
		e.ops(p.Options)
		e.tc(p.TC)
	case classicResultBatchMsg:
		e.u8(tagClassicResultBatch)
		e.uvarint(uint64(p.Txn))
		e.uvarint(uint64(len(p.Results)))
		for _, res := range p.Results {
			e.str(res.Key)
			e.bool(res.Accepted)
			e.u8(uint8(res.Reason))
		}
		e.tc(p.TC)
	case phase2aBatchMsg:
		e.u8(tagPhase2aBatch)
		e.addr(p.Master)
		e.uvarint(uint64(len(p.Items)))
		for _, it := range p.Items {
			e.uvarint(uint64(it.Txn))
			e.str(it.Key)
			e.uvarint(it.Ballot)
			e.op(it.Option)
		}
		e.epoch(p.Epoch)
	case phase2bBatchMsg:
		e.u8(tagPhase2bBatch)
		e.str(string(p.Region))
		e.uvarint(uint64(len(p.Items)))
		for _, it := range p.Items {
			e.uvarint(uint64(it.Txn))
			e.str(it.Key)
			e.uvarint(it.Ballot)
			e.bool(it.Accept)
		}
	case readReq:
		e.u8(tagReadReq)
		e.uvarint(p.ReqID)
		e.str(p.Key)
		e.addr(p.From)
	case readResp:
		e.u8(tagReadResp)
		e.uvarint(p.ReqID)
		e.str(p.Key)
		e.bool(p.Found)
		e.value(p.Value)
		e.str(string(p.Region))
	case syncReq:
		e.u8(tagSyncReq)
		e.uvarint(p.ReqID)
		e.addr(p.From)
	case syncResp:
		e.u8(tagSyncResp)
		e.uvarint(p.ReqID)
		keys := make([]string, 0, len(p.Records))
		for k := range p.Records {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.str(k)
			e.value(p.Records[k])
		}
	case spanReportMsg:
		e.u8(tagSpanReport)
		e.uvarint(uint64(p.Txn))
		e.uvarint(uint64(len(p.Spans)))
		for _, sp := range p.Spans {
			e.span(sp)
		}
	case leaseRequestMsg:
		e.u8(tagLeaseRequest)
		e.str(string(p.Keyspace))
		e.uvarint(p.Epoch)
		e.str(string(p.Holder))
		e.varint(p.ExpiresUnixNano)
		e.addr(p.From)
	case leaseGrantMsg:
		e.u8(tagLeaseGrant)
		e.str(string(p.Keyspace))
		e.uvarint(p.Epoch)
		e.bool(p.OK)
		e.uvarint(p.CurEpoch)
		e.str(string(p.CurHolder))
		e.varint(p.CurExpiresUnixNano)
		e.str(string(p.Region))
	default:
		return dst, fmt.Errorf("mdcc: wire: unencodable message type %T", m)
	}
	return e.buf, nil
}

// --- decoder ---

// wireDec is an error-latching reader over one encoded message. The first
// failure records err; every later read returns zero values, so decoders can
// read fields unconditionally and check err once.
type wireDec struct {
	data []byte
	off  int
	err  error
}

func (d *wireDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("mdcc: wire: "+format, args...)
	}
}

func (d *wireDec) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.data) {
		d.fail("truncated at byte %d", d.off)
		return 0
	}
	v := d.data[d.off]
	d.off++
	return v
}

func (d *wireDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *wireDec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *wireDec) bool() bool {
	b := d.u8()
	if b > 1 {
		d.fail("bad bool byte %d", b)
		return false
	}
	return b == 1
}

// take consumes n bytes after bounds-checking against both the named limit
// and the remaining buffer.
func (d *wireDec) take(n uint64, what string, limit uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > limit {
		d.fail("%s length %d exceeds limit %d", what, n, limit)
		return nil
	}
	if uint64(len(d.data)-d.off) < n {
		d.fail("truncated %s at byte %d", what, d.off)
		return nil
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *wireDec) str() string {
	n := d.uvarint()
	return string(d.take(n, "string", maxWireString))
}

// bytes decodes a slice encoded by wireEnc.bytes, restoring nil-ness and
// copying out of the frame buffer (the caller may reuse it).
func (d *wireDec) bytes() []byte {
	n := d.uvarint()
	if n == 0 {
		return nil
	}
	b := d.take(n-1, "bytes", maxWireBytes)
	if d.err != nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// count decodes a slice/map length, bounding it by both the count limit and
// the bytes actually remaining (each element costs ≥1 byte), so a corrupt
// length can never drive a huge allocation.
func (d *wireDec) count() int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > maxWireCount {
		d.fail("count %d exceeds limit %d", n, maxWireCount)
		return 0
	}
	if n > uint64(len(d.data)-d.off) {
		d.fail("count %d exceeds remaining %d bytes", n, len(d.data)-d.off)
		return 0
	}
	return int(n)
}

// name decodes a region or node name through simnet.Intern: the same few
// names arrive in every frame.
func (d *wireDec) name() string {
	n := d.uvarint()
	return simnet.Intern(d.take(n, "string", maxWireString))
}

func (d *wireDec) region() simnet.Region { return simnet.Region(d.name()) }

func (d *wireDec) addr() simnet.Addr {
	var a simnet.Addr
	a.Region = d.region()
	a.Name = d.name()
	return a
}

func (d *wireDec) reason() RejectReason {
	r := RejectReason(d.u8())
	if r > ReasonNotMaster {
		d.fail("bad reject reason %d", r)
		return ReasonNone
	}
	return r
}

func (d *wireDec) op() txn.Op {
	var o txn.Op
	o.Kind = txn.OpKind(d.u8())
	if d.err == nil && o.Kind > txn.OpAdd {
		d.fail("bad op kind %d", o.Kind)
		return txn.Op{}
	}
	o.Key = d.str()
	o.Value = d.bytes()
	o.Delta = d.varint()
	o.ReadVersion = d.varint()
	return o
}

func (d *wireDec) ops() []txn.Op {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]txn.Op, n)
	for i := range out {
		out[i] = d.op()
	}
	return out
}

func (d *wireDec) value() Value {
	var v Value
	v.Bytes = d.bytes()
	v.Int = d.varint()
	v.IsInt = d.bool()
	v.Version = d.varint()
	return v
}

// epoch decodes the optional trailing lease epoch: a frame that ends at the
// fixed fields — the pre-lease wire format — yields 0 (leases off).
func (d *wireDec) epoch() uint64 {
	if d.err != nil || d.off >= len(d.data) {
		return 0
	}
	v := d.uvarint()
	if v == 0 && d.err == nil {
		// Epoch 0 encodes as absence; an explicit 0 would not round-trip.
		d.fail("explicit zero trailing epoch")
	}
	return v
}

// tc decodes the optional trailing trace context. A frame that ends at the
// fixed fields — the pre-trace wire format — yields the zero TraceCtx, so
// old frames keep decoding.
func (d *wireDec) tc() TraceCtx {
	if d.err != nil || d.off >= len(d.data) {
		return TraceCtx{}
	}
	var t TraceCtx
	t.Span = d.uvarint()
	t.SentUnixNano = d.varint()
	if t.Span == 0 && d.err == nil {
		// An untraced message encodes no trailing group at all; a present
		// group with a zero span would not round-trip.
		d.fail("explicit zero trailing trace span")
	}
	return t
}

func (d *wireDec) span() obs.Span {
	var sp obs.Span
	sp.Txn = txn.ID(d.uvarint())
	sp.ID = d.uvarint()
	sp.Parent = d.uvarint()
	sp.Stage = obs.Stage(d.u8())
	if d.err == nil && sp.Stage >= obs.NumStages {
		d.fail("bad span stage %d", sp.Stage)
		return obs.Span{}
	}
	sp.Region = d.name()
	sp.Note = d.str()
	sp.Start = time.Unix(0, d.varint())
	sp.End = time.Unix(0, d.varint())
	return sp
}

func decodeMessage(data []byte) (any, error) {
	d := &wireDec{data: data}
	tag := d.u8()
	if d.err != nil {
		return nil, d.err
	}
	var m any
	switch tag {
	case tagPropose:
		var p proposeMsg
		p.Txn = txn.ID(d.uvarint())
		p.Coord = d.addr()
		p.Options = d.ops()
		p.TC = d.tc()
		m = p
	case tagPhase1a:
		var p phase1aMsg
		p.Key = d.str()
		p.Ballot = d.uvarint()
		p.Master = d.addr()
		p.Epoch = d.epoch()
		m = p
	case tagPhase1b:
		var p phase1bMsg
		p.Key = d.str()
		p.Ballot = d.uvarint()
		p.OK = d.bool()
		if n := d.count(); d.err == nil && n > 0 {
			p.Pending = make([]pendingSnapshot, n)
			for i := range p.Pending {
				p.Pending[i].Txn = txn.ID(d.uvarint())
				p.Pending[i].Option = d.op()
				p.Pending[i].Ballot = d.uvarint()
			}
		}
		p.Region = d.region()
		m = p
	case tagDecide:
		var p decideMsg
		p.Txn = txn.ID(d.uvarint())
		p.Commit = d.bool()
		p.Options = d.ops()
		if p.TC = d.tc(); p.TC.Span != 0 {
			p.Coord = d.addr()
		}
		m = p
	case tagVoteBatch:
		var p voteBatchMsg
		p.Txn = txn.ID(d.uvarint())
		p.Region = d.region()
		if n := d.count(); d.err == nil && n > 0 {
			p.Votes = make([]optionVote, n)
			for i := range p.Votes {
				p.Votes[i].Key = d.str()
				p.Votes[i].Accept = d.bool()
				p.Votes[i].Reason = d.reason()
			}
		}
		p.TC = d.tc()
		m = p
	case tagClassicProposeBatch:
		var p classicProposeBatchMsg
		p.Txn = txn.ID(d.uvarint())
		p.Coord = d.addr()
		p.Options = d.ops()
		p.TC = d.tc()
		m = p
	case tagClassicResultBatch:
		var p classicResultBatchMsg
		p.Txn = txn.ID(d.uvarint())
		if n := d.count(); d.err == nil && n > 0 {
			p.Results = make([]optionResult, n)
			for i := range p.Results {
				p.Results[i].Key = d.str()
				p.Results[i].Accepted = d.bool()
				p.Results[i].Reason = d.reason()
			}
		}
		p.TC = d.tc()
		m = p
	case tagPhase2aBatch:
		var p phase2aBatchMsg
		p.Master = d.addr()
		if n := d.count(); d.err == nil && n > 0 {
			p.Items = make([]phase2aItem, n)
			for i := range p.Items {
				p.Items[i].Txn = txn.ID(d.uvarint())
				p.Items[i].Key = d.str()
				p.Items[i].Ballot = d.uvarint()
				p.Items[i].Option = d.op()
			}
		}
		p.Epoch = d.epoch()
		m = p
	case tagPhase2bBatch:
		var p phase2bBatchMsg
		p.Region = d.region()
		if n := d.count(); d.err == nil && n > 0 {
			p.Items = make([]phase2bItem, n)
			for i := range p.Items {
				p.Items[i].Txn = txn.ID(d.uvarint())
				p.Items[i].Key = d.str()
				p.Items[i].Ballot = d.uvarint()
				p.Items[i].Accept = d.bool()
			}
		}
		m = p
	case tagReadReq:
		var p readReq
		p.ReqID = d.uvarint()
		p.Key = d.str()
		p.From = d.addr()
		m = p
	case tagReadResp:
		var p readResp
		p.ReqID = d.uvarint()
		p.Key = d.str()
		p.Found = d.bool()
		p.Value = d.value()
		p.Region = d.region()
		m = p
	case tagSyncReq:
		var p syncReq
		p.ReqID = d.uvarint()
		p.From = d.addr()
		m = p
	case tagSpanReport:
		var p spanReportMsg
		p.Txn = txn.ID(d.uvarint())
		if n := d.count(); d.err == nil && n > 0 {
			p.Spans = make([]obs.Span, n)
			for i := range p.Spans {
				p.Spans[i] = d.span()
			}
		}
		m = p
	case tagLeaseRequest:
		var p leaseRequestMsg
		p.Keyspace = d.region()
		p.Epoch = d.uvarint()
		p.Holder = d.region()
		p.ExpiresUnixNano = d.varint()
		p.From = d.addr()
		m = p
	case tagLeaseGrant:
		var p leaseGrantMsg
		p.Keyspace = d.region()
		p.Epoch = d.uvarint()
		p.OK = d.bool()
		p.CurEpoch = d.uvarint()
		p.CurHolder = d.region()
		p.CurExpiresUnixNano = d.varint()
		p.Region = d.region()
		m = p
	case tagSyncResp:
		var p syncResp
		p.ReqID = d.uvarint()
		if n := d.count(); d.err == nil && n > 0 {
			p.Records = make(map[string]Value, n)
			for i := 0; i < n; i++ {
				k := d.str()
				v := d.value()
				if d.err != nil {
					break
				}
				p.Records[k] = v
			}
		}
		m = p
	default:
		return nil, fmt.Errorf("mdcc: wire: unknown tag %d", tag)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("mdcc: wire: %d trailing bytes after tag %d", len(data)-d.off, tag)
	}
	return m, nil
}
