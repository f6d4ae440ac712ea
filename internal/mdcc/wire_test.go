package mdcc

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"planet/internal/obs"
	"planet/internal/simnet"
	"planet/internal/txn"
)

// wireSamples returns one representative instance of every wire message
// type, exercising nil vs empty slices, zero values, and every enum value
// somewhere in the set.
func wireSamples() []any {
	ops := []txn.Op{
		{Kind: txn.OpSet, Key: "k1", Value: []byte("hello"), ReadVersion: 7},
		{Kind: txn.OpAdd, Key: "k2", Delta: -42, ReadVersion: 0},
		{Kind: txn.OpSet, Key: "", Value: []byte{}, Delta: 1 << 40},
	}
	coord := simnet.Addr{Region: "us-west", Name: "coord"}
	master := simnet.Addr{Region: "eu-west", Name: "replica"}
	return []any{
		proposeMsg{Txn: 1, Coord: coord, Options: ops},
		proposeMsg{Txn: 2, Coord: simnet.Addr{}},
		voteBatchMsg{Txn: 3, Region: "us-east", Votes: []optionVote{{Key: "k", Accept: true}}},
		voteBatchMsg{Txn: 4, Region: "", Votes: []optionVote{{Key: "k", Reason: ReasonBallot}}},
		classicProposeBatchMsg{Txn: 5, Coord: coord, Options: ops[1:2]},
		classicResultBatchMsg{Txn: 6, Results: []optionResult{{Key: "k", Reason: ReasonNotMaster}}},
		phase1aMsg{Key: "k", Ballot: 9, Master: master},
		phase1bMsg{Key: "k", Ballot: 9, OK: true, Region: "eu-west",
			Pending: []pendingSnapshot{{Txn: 7, Option: ops[0], Ballot: 2}, {Txn: 8, Option: ops[1]}}},
		phase1bMsg{Key: "k", OK: false},
		phase2aBatchMsg{Master: master, Items: []phase2aItem{{Txn: 9, Key: "k", Ballot: 3, Option: ops[2]}}},
		phase2bBatchMsg{Region: "us-west", Items: []phase2bItem{{Txn: 10, Key: "k", Ballot: 3, Accept: true}}},
		decideMsg{Txn: 11, Commit: true, Options: ops},
		decideMsg{Txn: 12, Commit: false},
		voteBatchMsg{Txn: 13, Region: "us-east", Votes: []optionVote{
			{Key: "a", Accept: true}, {Key: "b", Reason: ReasonPending},
			{Key: "c", Reason: ReasonVersion}, {Key: "d", Reason: ReasonClassicOwned},
			{Key: "e", Reason: ReasonDecided}}},
		classicProposeBatchMsg{Txn: 14, Coord: coord, Options: ops[:1]},
		classicResultBatchMsg{Txn: 15, Results: []optionResult{
			{Key: "a", Accepted: true}, {Key: "b", Reason: ReasonBound}}},
		phase2aBatchMsg{Master: master, Items: []phase2aItem{
			{Txn: 16, Key: "a", Ballot: 1, Option: ops[0]},
			{Txn: 16, Key: "b", Ballot: 2, Option: ops[1]}}},
		phase2bBatchMsg{Region: "ap-south", Items: []phase2bItem{
			{Txn: 17, Key: "a", Ballot: 1, Accept: true},
			{Txn: 17, Key: "b", Ballot: 2, Accept: false}}},
		readReq{ReqID: 1, Key: "stock", From: coord},
		readResp{ReqID: 1, Key: "stock", Found: true, Region: "us-west",
			Value: Value{Int: 99, IsInt: true, Version: 4}},
		readResp{ReqID: 2, Key: "blob", Found: true,
			Value: Value{Bytes: []byte{0, 1, 2}, Version: 1}},
		readResp{ReqID: 3, Key: "missing"},
		syncReq{ReqID: 5, From: master},
		syncResp{ReqID: 5, Records: map[string]Value{
			"a": {Int: 1, IsInt: true, Version: 2},
			"b": {Bytes: []byte("x"), Version: 9},
			"c": {}}},
		syncResp{ReqID: 6},
		// Traced variants: the optional trailing trace context present.
		proposeMsg{Txn: 18, Coord: coord, Options: ops[:1],
			TC: TraceCtx{Span: 0xabc0001, SentUnixNano: 1_700_000_000_000_000_001}},
		voteBatchMsg{Txn: 19, Region: "us-east", Votes: []optionVote{{Key: "k", Accept: true}},
			TC: TraceCtx{Span: 0xabc0002, SentUnixNano: -5}},
		classicProposeBatchMsg{Txn: 20, Coord: coord, Options: ops[:1],
			TC: TraceCtx{Span: 3, SentUnixNano: 9}},
		classicResultBatchMsg{Txn: 21, Results: []optionResult{{Key: "k", Accepted: true}},
			TC: TraceCtx{Span: 4, SentUnixNano: 10}},
		decideMsg{Txn: 22, Commit: true, Options: ops[:1], Coord: coord,
			TC: TraceCtx{Span: 5, SentUnixNano: 11}},
		voteBatchMsg{Txn: 23, Region: "us-east",
			Votes: []optionVote{{Key: "a", Accept: true}},
			TC:    TraceCtx{Span: 6, SentUnixNano: 12}},
		classicProposeBatchMsg{Txn: 24, Coord: coord, Options: ops[:2],
			TC: TraceCtx{Span: 7, SentUnixNano: 13}},
		classicResultBatchMsg{Txn: 25,
			Results: []optionResult{{Key: "a", Accepted: true}},
			TC:      TraceCtx{Span: 8, SentUnixNano: 14}},
		spanReportMsg{Txn: 26, Spans: []obs.Span{
			{Txn: 26, ID: 100, Parent: 99, Stage: obs.StageOptionRPC,
				Region: "us-east", Note: "leg",
				Start: time.Unix(0, 1_000), End: time.Unix(0, 2_000)},
			{Txn: 26, ID: 101, Parent: 100, Stage: obs.StageReplicaWAL,
				Start: time.Unix(0, 3_000), End: time.Unix(0, 4_000)},
		}},
		spanReportMsg{Txn: 27},
		// Lease-epoch-stamped variants: the optional trailing epoch present.
		phase1aMsg{Key: "k", Ballot: 9, Master: master, Epoch: 3},
		phase2aBatchMsg{Master: master, Epoch: 1 << 33, Items: []phase2aItem{
			{Txn: 28, Key: "k", Ballot: 3, Option: ops[0]}}},
		phase2aBatchMsg{Master: master, Epoch: 2, Items: []phase2aItem{
			{Txn: 29, Key: "a", Ballot: 1, Option: ops[0]}}},
		// Lease round messages.
		leaseRequestMsg{Keyspace: "us-east", Epoch: 7, Holder: "eu-west",
			ExpiresUnixNano: 1_700_000_000_000_000_002, From: master},
		leaseRequestMsg{Keyspace: "", Epoch: 0, ExpiresUnixNano: -1},
		leaseGrantMsg{Keyspace: "us-east", Epoch: 7, OK: true, CurEpoch: 7,
			CurHolder: "eu-west", CurExpiresUnixNano: 1_700_000_000_000_000_003, Region: "us-west"},
		leaseGrantMsg{Keyspace: "us-east", Epoch: 8, OK: false, CurEpoch: 12,
			CurHolder: "ap-south", CurExpiresUnixNano: 0, Region: ""},
	}
}

// TestWireTraceVersionTolerance pins the compatibility contract for the
// trailing trace context: an untraced message encodes byte-identically to
// the pre-trace wire format (its traced encoding strictly extends it), and
// decoding the shorter untraced frame yields a zero TraceCtx.
func TestWireTraceVersionTolerance(t *testing.T) {
	var c WireCodec
	coord := simnet.Addr{Region: "us-west", Name: "coord"}
	ops := []txn.Op{{Kind: txn.OpSet, Key: "k", Value: []byte("v")}}

	untraced := proposeMsg{Txn: 1, Coord: coord, Options: ops}
	traced := untraced
	traced.TC = TraceCtx{Span: 42, SentUnixNano: 7}

	plain, err := c.Append(nil, untraced)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := c.Append(nil, traced)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(ext, plain) {
		t.Fatal("traced frame does not extend the untraced frame: old-format frames would not decode")
	}
	if len(ext) <= len(plain) {
		t.Fatal("traced frame no longer than untraced frame")
	}

	// An old-format frame (no trailing context) decodes to the zero TraceCtx.
	got, err := c.Decode(plain)
	if err != nil {
		t.Fatalf("decode pre-trace frame: %v", err)
	}
	if p := got.(proposeMsg); p.TC != (TraceCtx{}) {
		t.Errorf("pre-trace frame decoded with TC %+v, want zero", p.TC)
	}

	// decideMsg's trailing group additionally carries the coordinator.
	dPlain, _ := c.Append(nil, decideMsg{Txn: 2, Commit: true, Options: ops})
	dTraced, _ := c.Append(nil, decideMsg{Txn: 2, Commit: true, Options: ops,
		TC: TraceCtx{Span: 9, SentUnixNano: 1}, Coord: coord})
	if !bytes.HasPrefix(dTraced, dPlain) {
		t.Fatal("traced decide does not extend the untraced decide")
	}
	gd, err := c.Decode(dTraced)
	if err != nil {
		t.Fatal(err)
	}
	if d := gd.(decideMsg); d.Coord != coord || d.TC.Span != 9 {
		t.Errorf("traced decide round trip lost trailing group: %+v", d)
	}
}

// TestWireEpochVersionTolerance pins the compatibility contract for the
// trailing lease epoch on master-arbitrated messages: an epoch-0 message
// (leases off) encodes byte-identically to the pre-lease wire format, an
// epoch-stamped frame strictly extends it, and decoding the shorter
// pre-lease frame yields epoch 0 — which the fence lets pass.
func TestWireEpochVersionTolerance(t *testing.T) {
	var c WireCodec
	master := simnet.Addr{Region: "eu-west", Name: "replica"}

	plainMsgs := []any{
		phase1aMsg{Key: "k", Ballot: 9, Master: master},
		phase2aBatchMsg{Master: master, Items: []phase2aItem{
			{Txn: 2, Key: "a", Ballot: 1, Option: txn.Op{Kind: txn.OpAdd, Key: "a"}}}},
	}
	stamp := func(m any) any {
		switch p := m.(type) {
		case phase1aMsg:
			p.Epoch = 6
			return p
		case phase2aBatchMsg:
			p.Epoch = 6
			return p
		}
		return m
	}
	epochOf := func(m any) uint64 {
		switch p := m.(type) {
		case phase1aMsg:
			return p.Epoch
		case phase2aBatchMsg:
			return p.Epoch
		}
		return 0
	}

	for _, m := range plainMsgs {
		plain, err := c.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := c.Append(nil, stamp(m))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(ext, plain) {
			t.Fatalf("%T: epoch-stamped frame does not extend the pre-lease frame", m)
		}
		if len(ext) <= len(plain) {
			t.Fatalf("%T: epoch-stamped frame no longer than the plain frame", m)
		}
		got, err := c.Decode(plain)
		if err != nil {
			t.Fatalf("%T: decode pre-lease frame: %v", m, err)
		}
		if e := epochOf(got); e != 0 {
			t.Errorf("%T: pre-lease frame decoded with epoch %d, want 0", m, e)
		}
		back, err := c.Decode(ext)
		if err != nil {
			t.Fatalf("%T: decode stamped frame: %v", m, err)
		}
		if e := epochOf(back); e != 6 {
			t.Errorf("%T: stamped frame decoded with epoch %d, want 6", m, e)
		}
	}
}

// TestWireRoundTrip encodes and decodes every message type and requires the
// result to be structurally identical to the input.
func TestWireRoundTrip(t *testing.T) {
	var c WireCodec
	for _, m := range wireSamples() {
		buf, err := c.Append(nil, m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		got, err := c.Decode(buf)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip %T:\n  sent %#v\n  got  %#v", m, m, got)
		}
	}
}

// TestWireDeterministic requires equal messages to encode to equal bytes
// (map fields must serialize in sorted key order).
func TestWireDeterministic(t *testing.T) {
	var c WireCodec
	for _, m := range wireSamples() {
		a, _ := c.Append(nil, m)
		b, _ := c.Append(nil, m)
		if !bytes.Equal(a, b) {
			t.Errorf("%T encoded differently across calls", m)
		}
	}
}

// TestWireAppendExtends verifies Append really appends (framing writes the
// header first, then the payloads into the same buffer).
func TestWireAppendExtends(t *testing.T) {
	var c WireCodec
	prefix := []byte{0xde, 0xad}
	buf, err := c.Append(prefix, voteBatchMsg{Txn: 1, Region: "r",
		Votes: []optionVote{{Key: "k", Accept: true}}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf, prefix) {
		t.Fatalf("Append overwrote the destination prefix")
	}
	if _, err := c.Decode(buf[len(prefix):]); err != nil {
		t.Fatalf("decode after prefix: %v", err)
	}
}

// TestWireUnencodable rejects non-protocol payloads instead of panicking.
func TestWireUnencodable(t *testing.T) {
	var c WireCodec
	if _, err := c.Append(nil, "not a message"); err == nil {
		t.Fatal("expected error encoding a non-protocol type")
	}
	if _, err := c.Append(nil, nil); err == nil {
		t.Fatal("expected error encoding nil")
	}
}

// TestWireTruncation decodes every strict prefix of every encoded message.
// Each must return an error, with one designed exception: a traced message
// truncated exactly at its fixed-field boundary IS the valid pre-trace
// frame (that is the version-tolerance contract). Such a prefix must decode
// cleanly and re-encode to exactly itself; any other prefix must error.
func TestWireTruncation(t *testing.T) {
	var c WireCodec
	for _, m := range wireSamples() {
		buf, err := c.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(buf); n++ {
			got, err := c.Decode(buf[:n])
			if err != nil {
				continue
			}
			re, err := c.Append(nil, got)
			if err != nil || !bytes.Equal(re, buf[:n]) {
				t.Errorf("%T: truncation to %d/%d bytes decoded to %T that re-encodes differently",
					m, n, len(buf), got)
			}
		}
	}
}

// TestWireTrailingBytes rejects frames with bytes left over after the
// message, which would otherwise hide desync between sender and receiver.
func TestWireTrailingBytes(t *testing.T) {
	var c WireCodec
	buf, _ := c.Append(nil, syncReq{ReqID: 1})
	if _, err := c.Decode(append(buf, 0)); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
}

// TestWireCorruption flips every byte of every encoded message through a few
// values; decoding must never panic, and when it succeeds the result must
// still be a protocol message (corruption may produce a different valid
// message — the framing checksum of TCP already guards integrity; this test
// guards the decoder against crashes and runaway allocations).
func TestWireCorruption(t *testing.T) {
	var c WireCodec
	for _, m := range wireSamples() {
		orig, err := c.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(orig))
		for i := range orig {
			for _, delta := range []byte{1, 0x80, 0xff} {
				copy(buf, orig)
				buf[i] ^= delta
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%T: decode panicked after corrupting byte %d: %v", m, i, r)
						}
					}()
					c.Decode(buf)
				}()
			}
		}
	}
}

// TestWireRandomGarbage feeds random byte strings to the decoder; none may
// panic.
func TestWireRandomGarbage(t *testing.T) {
	var c WireCodec
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		rng.Read(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decode panicked on %x: %v", buf, r)
				}
			}()
			c.Decode(buf)
		}()
	}
}

// TestWireHostileLengths hand-builds frames whose length fields claim far
// more data than present; the decoder must error without allocating
// gigabytes.
func TestWireHostileLengths(t *testing.T) {
	var c WireCodec
	hostile := [][]byte{
		// propose with an options count of 2^40.
		append([]byte{tagPropose, 1, 0, 0}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40),
		// vote batch (empty region, one vote) with a key length of 2^30.
		{tagVoteBatch, 1, 0, 1, 0x80, 0x80, 0x80, 0x80, 0x04},
		// syncResp with a huge record count and no data.
		{tagSyncResp, 1, 0xff, 0xff, 0xff, 0x7f},
	}
	for _, buf := range hostile {
		if _, err := c.Decode(buf); err == nil {
			t.Errorf("hostile frame %x decoded without error", buf)
		}
	}
}

// TestWireRetiredTags pins the five tags of the retired one-message-per-option
// wire format: a frame that older senders encoded as a per-option vote,
// classic propose, classic result, phase 2a or phase 2b now decodes as an
// unknown tag, without panicking, and the tags around them keep their frozen
// numbers.
func TestWireRetiredTags(t *testing.T) {
	coord := simnet.Addr{Region: "us-west", Name: "coord"}
	op := txn.Op{Kind: txn.OpSet, Key: "k", Value: []byte("v"), ReadVersion: 1}
	// Each body writes the fields its tag carried, in their frozen order.
	retired := map[uint8]func(e *wireEnc){
		2: func(e *wireEnc) { // vote: txn, key, accept, reason, region
			e.uvarint(3)
			e.str("k")
			e.bool(true)
			e.u8(uint8(ReasonNone))
			e.str("us-east")
		},
		3: func(e *wireEnc) { // classic propose: txn, coord, option
			e.uvarint(5)
			e.addr(coord)
			e.op(op)
		},
		4: func(e *wireEnc) { // classic result: txn, key, accepted, reason
			e.uvarint(6)
			e.str("k")
			e.bool(false)
			e.u8(uint8(ReasonBound))
		},
		7: func(e *wireEnc) { // phase 2a: txn, key, ballot, option, master
			e.uvarint(9)
			e.str("k")
			e.uvarint(3)
			e.op(op)
			e.addr(coord)
		},
		8: func(e *wireEnc) { // phase 2b: txn, key, ballot, accept, region
			e.uvarint(10)
			e.str("k")
			e.uvarint(3)
			e.bool(true)
			e.str("us-west")
		},
	}
	var c WireCodec
	for tag, body := range retired {
		e := &wireEnc{}
		e.u8(tag)
		body(e)
		buf := e.buf
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("retired tag %d: decode panicked: %v", tag, r)
				}
			}()
			m, err := c.Decode(buf)
			if err == nil {
				t.Errorf("retired tag %d: decoded to %T, want an unknown-tag error", tag, m)
				return
			}
			if !strings.Contains(err.Error(), "unknown tag") {
				t.Errorf("retired tag %d: err = %v, want an unknown-tag error", tag, err)
			}
		}()
	}

	frozen := []struct {
		tag  uint8
		want uint8
	}{{tagPropose, 1}, {tagPhase1a, 5}, {tagPhase1b, 6}, {tagDecide, 9}, {tagVoteBatch, 10}, {tagLeaseGrant, 21}}
	for _, f := range frozen {
		if f.tag != f.want {
			t.Errorf("frozen tag moved: got %d, want %d", f.tag, f.want)
		}
	}
}

// FuzzWireDecode is the go-native fuzz entry: any input must decode without
// panicking, and every successful decode must re-encode and re-decode to the
// same message (decode∘encode is idempotent even for inputs we didn't
// generate).
func FuzzWireDecode(f *testing.F) {
	var c WireCodec
	for _, m := range wireSamples() {
		buf, _ := c.Append(nil, m)
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	// Regression: a propose frame whose trailing trace group has span 0
	// (encoders never emit that — it must be rejected, not re-encoded away).
	f.Add([]byte("\x010\a0000000\x00\x00\x000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := c.Decode(data)
		if err != nil {
			return
		}
		buf, err := c.Append(nil, m)
		if err != nil {
			t.Fatalf("re-encode of decoded %T failed: %v", m, err)
		}
		m2, err := c.Decode(buf)
		if err != nil {
			t.Fatalf("re-decode of %T failed: %v", m, err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("decode∘encode not idempotent:\n  %#v\n  %#v", m, m2)
		}
	})
}
