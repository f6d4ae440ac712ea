package realnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"planet/internal/mdcc"
	"planet/internal/simnet"
)

// TestEncodeFrameFormat requires the in-place encoder to write the frame
// format byte for byte: each payload length as a plain uvarint ahead of the
// payload, whether it fits the one-byte slot or needs two or three bytes.
func TestEncodeFrameFormat(t *testing.T) {
	tr, err := New(fastCfg("", nil))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	from := simnet.Addr{Region: "us-west", Name: "coord"}
	to := simnet.Addr{Region: "eu-west", Name: "replica"}
	for _, payloads := range [][]any{
		{""},
		{"a", []byte{}, "b"},
		{string(make([]byte, 127)), string(make([]byte, 16383)), "tail"},
		{bytes.Repeat([]byte{0xfe}, 70000), "x", bytes.Repeat([]byte{1}, 200)},
	} {
		checkFrame(t, tr, from, to, payloads)
	}
	for _, n := range []int{0, 1, 126, 127, 128, 129, 16382, 16383, 16384, 70000} {
		checkFrame(t, tr, from, to, []any{bytes.Repeat([]byte{'p'}, n), "after"})
	}
}

// checkFrame compares encodeFrame's output with the frame built the plain
// way: every payload encoded on its own, then its length and bytes copied
// into the frame.
func checkFrame(t *testing.T, tr *Transport, from, to simnet.Addr, payloads []any) {
	t.Helper()
	got, err := tr.encodeFrame(from, to, payloads)
	if err != nil {
		t.Fatal(err)
	}
	want := appendAddr(appendAddr(make([]byte, frameHeaderLen), from), to)
	want = binary.AppendUvarint(want, uint64(len(payloads)))
	for _, p := range payloads {
		body, err := testCodec{}.Append(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		want = append(binary.AppendUvarint(want, uint64(len(body))), body...)
	}
	binary.BigEndian.PutUint32(want, uint32(len(want)-frameHeaderLen))
	if !bytes.Equal(got, want) {
		t.Fatalf("frame of %d payloads differs from the plain encoding (%d vs %d bytes)", len(payloads), len(got), len(want))
	}
}

// TestRealnetReadBufferReuse sends frames below, at and above the read
// buffer's size from two goroutines at once, and checks every payload only
// after all of them have arrived: by then later frames have refilled the
// buffer the early ones were decoded from, so a payload that aliased it
// would read back changed. verify.sh runs it under -race -count=10.
func TestRealnetReadBufferReuse(t *testing.T) {
	a, _, col, addrA, addrB := warmPair(t)
	sizes := []int{1, 100, readBufSize/2 + 1, readBufSize - frameHeaderLen - 64, readBufSize + 1, 3 * readBufSize}
	const rounds = 8
	payload := func(sender, round, i int) []byte {
		b := bytes.Repeat([]byte{byte(sender*rounds*len(sizes) + round*len(sizes) + i)}, sizes[i])
		return append(b, fmt.Sprintf("|%d/%d/%d", sender, round, i)...)
	}
	var wg sync.WaitGroup
	for sender := 0; sender < 2; sender++ {
		wg.Add(1)
		go func(sender int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				// One payload per frame, then the same payloads as one batch.
				batch := make([]any, len(sizes))
				for i := range sizes {
					a.Send(addrA, addrB, payload(sender, round, i))
					batch[i] = payload(sender, round, i)
				}
				a.SendBatch(addrA, addrB, batch[:3])
			}
		}(sender)
	}
	wg.Wait()
	total := 1 + 2*rounds*(len(sizes)+3)
	msgs := col.wait(t, total, 20*time.Second)
	seen := make(map[string]int)
	for _, m := range msgs[1:] {
		b, ok := m.Payload.([]byte)
		if !ok {
			t.Fatalf("payload %T", m.Payload)
		}
		tag := b[bytes.LastIndexByte(b, '|'):]
		var sender, round, i int
		if _, err := fmt.Sscanf(string(tag), "|%d/%d/%d", &sender, &round, &i); err != nil {
			t.Fatalf("payload tag %q: %v", tag, err)
		}
		if !bytes.Equal(b, payload(sender, round, i)) {
			t.Fatalf("payload %s changed after delivery", tag)
		}
		seen[string(tag)]++
	}
	if len(seen) != 2*rounds*len(sizes) {
		t.Fatalf("%d distinct payloads, want %d", len(seen), 2*rounds*len(sizes))
	}
}

// voteBatch returns a one-vote batch, the message each replica answers a
// one-op fast commit with, as mdcc.WireCodec decodes it (its message types
// are mdcc's own): tag 10, the transaction, the voting region, the count,
// then the key, accept and reason of each vote.
func voteBatch(tb testing.TB) any {
	tb.Helper()
	wire := binary.AppendUvarint([]byte{10}, 1<<56+417)
	wire = append(append(wire, 7), "us-east"...)
	wire = append(append(wire, 1, 10), "key-000417"...)
	wire = append(wire, 1, 0)
	m, err := mdcc.WireCodec{}.Decode(wire)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestDecodeFrameWireCodecCopies decodes a vote batch frame with the
// protocol's codec, overwrites the frame, and requires the decoded
// envelope and payload to be unchanged.
func TestDecodeFrameWireCodecCopies(t *testing.T) {
	cfg := fastCfg("", nil)
	cfg.Codec = mdcc.WireCodec{}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	from := simnet.Addr{Region: "us-east", Name: "replica"}
	to := simnet.Addr{Region: "us-west", Name: "coord"}
	vote := voteBatch(t)
	frame, err := tr.encodeFrame(from, to, []any{vote, vote})
	if err != nil {
		t.Fatal(err)
	}
	body := frame[frameHeaderLen:]
	gotFrom, gotTo, payloads, err := tr.decodeFrame(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xAA
	}
	if gotFrom != from || gotTo != to || len(payloads) != 2 ||
		!reflect.DeepEqual(payloads[0], vote) || !reflect.DeepEqual(payloads[1], vote) {
		t.Fatalf("decoded %v -> %v %+v after the frame was overwritten, want %v -> %v two of %+v",
			gotFrom, gotTo, payloads, from, to, vote)
	}
}

// BenchmarkFrameRoundTrip is realnet's rung of the allocation ladder: a
// one-vote batch framed by encodeFrame and parsed back by decodeFrame with
// the protocol's codec, reusing the payload slice as readLoop does.
func BenchmarkFrameRoundTrip(b *testing.B) {
	cfg := fastCfg("", nil)
	cfg.Codec = mdcc.WireCodec{}
	tr, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	from := simnet.Addr{Region: "us-east", Name: "replica"}
	to := simnet.Addr{Region: "us-west", Name: "coord"}
	batch := []any{voteBatch(b)}
	var payloads []any
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := tr.encodeFrame(from, to, batch)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, payloads, err = tr.decodeFrame(frame[frameHeaderLen:], payloads[:0]); err != nil {
			b.Fatal(err)
		}
		clear(payloads)
	}
}
