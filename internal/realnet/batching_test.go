package realnet

// Tests for the syscall-saving paths: coalesced writes, buffered reads, and
// deferrable frames that ride along with the next write to their peer.

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"planet/internal/simnet"
)

// reserveAddr returns a loopback address nothing is listening on (yet).
func reserveAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// waitFor polls cond until it holds or the budget passes.
func waitFor(t *testing.T, budget time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// warmPair returns a connected pair with b collecting at addrB.
func warmPair(t *testing.T) (a, b *Transport, col *collector, addrA, addrB simnet.Addr) {
	t.Helper()
	a, b = newPair(t)
	addrA = simnet.Addr{Region: "a", Name: "coord"}
	addrB = simnet.Addr{Region: "b", Name: "replica"}
	col = newCollector()
	b.Register(addrB, col.handle)
	a.Send(addrA, addrB, "warmup")
	col.wait(t, 1, 5*time.Second)
	// The receiver can deliver before the writer has counted its write.
	waitFor(t, time.Second, "the warm-up send to be counted", func() bool { return a.StatsSnapshot().Sent == 1 })
	return a, b, col, addrA, addrB
}

// TestRealnetCoalescedWrite queues frames behind a writer stalled in dial
// backoff (its peer is not listening yet) and requires them to arrive in
// order once the peer appears, with the backlog sent in one write. The
// first backoff (100–300 ms) leaves the peer time to appear before the
// writer's second dial, well inside dropAfter.
func TestRealnetCoalescedWrite(t *testing.T) {
	bAddr := reserveAddr(t)
	cfg := fastCfg("", map[simnet.Region]string{"b": bAddr})
	cfg.BackoffBase = 200 * time.Millisecond
	cfg.BackoffMax = time.Second
	var dialFailed atomic.Bool
	cfg.Logf = func(format string, args ...any) {
		if strings.HasPrefix(format, "realnet: dial") {
			dialFailed.Store(true)
		}
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	addrA := simnet.Addr{Region: "a", Name: "coord"}
	addrB := simnet.Addr{Region: "b", Name: "replica"}

	const frames = 40
	for i := 0; i < frames; i++ {
		a.Send(addrA, addrB, fmt.Sprintf("f%02d", i))
	}
	waitFor(t, 5*time.Second, "a failed dial", dialFailed.Load)

	b, err := New(fastCfg(bAddr, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	col := newCollector()
	b.Register(addrB, col.handle)
	msgs := col.wait(t, frames, 5*time.Second)
	for i, m := range msgs {
		if want := fmt.Sprintf("f%02d", i); m.Payload != want {
			t.Fatalf("frame %d is %v, want %s", i, m.Payload, want)
		}
	}
	waitFor(t, time.Second, "every write to be counted", func() bool { return a.StatsSnapshot().Sent == frames })
	st := a.StatsSnapshot()
	// The stalled writer held the first frame (plus whatever was queued when
	// it woke); everything behind it leaves in the next write.
	if st.Writes > 2 {
		t.Fatalf("sent %d frames in %d writes, want %d frames in at most 2", st.Sent, st.Writes, frames)
	}
	if rs := b.StatsSnapshot(); rs.Reads > frames/2 {
		t.Fatalf("receiver took %d reads for %d frames", rs.Reads, frames)
	}
}

// frameStream encodes one frame per payload list, back to back.
func frameStream(t testing.TB, tr *Transport, sends ...[]any) []byte {
	t.Helper()
	from := simnet.Addr{Region: "a", Name: "coord"}
	to := simnet.Addr{Region: "local", Name: "replica"}
	var stream []byte
	for _, payloads := range sends {
		f, err := tr.encodeFrame(from, to, payloads)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, f...)
	}
	return stream
}

// feed runs a readLoop over one end of a synchronous pipe and writes stream
// to the other end in the given chunks: every chunk boundary is a read
// boundary. It returns once the loop has consumed everything and exited.
func feed(tr *Transport, stream []byte, chunks []int) {
	client, server := net.Pipe()
	tr.wg.Add(1)
	done := make(chan struct{})
	go func() {
		tr.readLoop(server)
		close(done)
	}()
	for _, n := range chunks {
		if _, err := client.Write(stream[:n]); err != nil {
			break // the loop condemned the stream
		}
		stream = stream[n:]
	}
	client.Close()
	<-done
}

// TestRealnetReaderSplitFrames feeds the buffered reader a stream of frames
// cut at every byte boundary — each two-way split, then one byte at a time
// — and requires every frame to decode, in order, every time. One frame is
// larger than the read buffer, so a body that spans several fills of the
// buffer sees every split too.
func TestRealnetReaderSplitFrames(t *testing.T) {
	tr, err := New(fastCfg("", nil))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	to := simnet.Addr{Region: "local", Name: "replica"}
	var got []any
	tr.Register(to, func(m simnet.Message) { got = append(got, m.Payload) })

	small := frameStream(t, tr, []any{"one"}, []any{"b1", "b2", "b3"}, []any{""}, []any{"last"})
	want := []any{"one", "b1", "b2", "b3", "", "last"}
	check := func(what string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: delivered %q, want %q", what, got, want)
		}
		got = got[:0]
	}
	for cut := 1; cut < len(small); cut++ {
		feed(tr, small, []int{cut, len(small) - cut})
		check(fmt.Sprintf("split at byte %d", cut))
	}
	ones := make([]int, len(small))
	for i := range ones {
		ones[i] = 1
	}
	feed(tr, small, ones)
	check("one byte at a time")

	// A frame larger than the read buffer, between two small ones, cut at
	// every boundary near its edges and at a stride through its middle.
	huge := string(make([]byte, readBufSize+100))
	big := frameStream(t, tr, []any{"pre"}, []any{huge}, []any{"post"})
	want = []any{"pre", huge, "post"}
	for cut := 1; cut < len(big); cut++ {
		if cut > 64 && cut < len(big)-64 && cut%997 != 0 {
			continue
		}
		feed(tr, big, []int{cut, len(big) - cut})
		check(fmt.Sprintf("big frame split at byte %d", cut))
	}
	if n := tr.StatsSnapshot().DecodeErrors; n != 0 {
		t.Fatalf("%d decode errors on valid streams", n)
	}
}

// FuzzReadLoop feeds arbitrary bytes, in arbitrary chunk sizes, to the
// buffered read loop: it must never panic and must always let go of the
// connection, and a valid prefix must still be delivered. The prefix ends
// in a frame nearly as large as the read buffer, which refills the buffer
// over the frames before it: a payload delivered from those that aliased
// the buffer would read back changed. Seeds add frames that straddle or
// exceed the buffer, and several payloads to a frame.
func FuzzReadLoop(f *testing.F) {
	tr, err := New(fastCfg("", nil))
	if err != nil {
		f.Fatal(err)
	}
	defer tr.Close()
	to := simnet.Addr{Region: "local", Name: "replica"}
	var delivered []any
	tr.Register(to, func(m simnet.Message) { delivered = append(delivered, m.Payload) })
	scrub := bytes.Repeat([]byte{0xAA}, readBufSize-256)
	want := []any{"ok", "x", "y", []byte("bytes"), "z", scrub}
	valid := frameStream(f, tr, want[:1], want[1:3], want[3:5], want[5:])

	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(3))
	f.Add([]byte{0x00, 0x00, 0x00, 0x03, 0x01, 0x02, 0x03}, uint8(2))
	f.Add(valid[:len(valid)-1], uint8(5))
	f.Add(append(append([]byte(nil), valid...), valid...), uint8(7))
	for _, n := range []int{readBufSize - frameHeaderLen - 40, readBufSize - 30, readBufSize + 1, 2*readBufSize + 5} {
		big := frameStream(f, tr, []any{make([]byte, n)}, []any{"s", []byte{1, 2}, "t"}, []any{string(make([]byte, n/2)), make([]byte, n/2)})
		f.Add(big, uint8(16))
		f.Add(big[:len(big)-3], uint8(11))
	}
	f.Fuzz(func(t *testing.T, tail []byte, chunk uint8) {
		stream := append(append([]byte(nil), valid...), tail...)
		size := int(chunk)%17 + 1
		var chunks []int
		for rest := len(stream); rest > 0; rest -= size {
			chunks = append(chunks, min(size, rest))
		}
		delivered = delivered[:0]
		feed(tr, stream, chunks)
		if len(delivered) < len(want) {
			t.Fatalf("valid prefix delivered %d of %d payloads", len(delivered), len(want))
		}
		if !reflect.DeepEqual(delivered[:len(want)], want) {
			t.Fatalf("valid prefix delivered %.40q, want %.40q", delivered[:len(want)], want)
		}
	})
}

// TestRealnetDeferredIdleLink parks a deferrable frame on an idle link and
// requires the timer to deliver it within its bound (generously padded for
// a loaded test machine).
func TestRealnetDeferredIdleLink(t *testing.T) {
	a, _, col, addrA, addrB := warmPair(t)
	writes := a.StatsSnapshot().Writes

	start := time.Now()
	a.Send(addrA, addrB, "defer:span")
	if got := a.unsent.Load(); got != 1 {
		t.Fatalf("unsent = %d right after a deferrable send, want 1", got)
	}
	if got := a.StatsSnapshot().Writes; got != writes {
		t.Fatalf("a deferrable send wrote at once (%d -> %d writes)", writes, got)
	}
	msgs := col.wait(t, 2, 50*deferBound)
	if msgs[1].Payload != "defer:span" {
		t.Fatalf("got %+v", msgs[1])
	}
	if waited := time.Since(start); waited > 50*deferBound {
		t.Fatalf("deferred frame took %v on an idle link (bound %v)", waited, deferBound)
	}
	waitFor(t, time.Second, "the outbox to drain", func() bool { return a.unsent.Load() == 0 })
}

// TestRealnetDeferredWindow parks frames across deferral windows on an
// otherwise idle link. The writer taking a parked frame along with a
// regular one leaves that frame's window open, so a frame parked next may
// find it open; a frame parked after the window closed opens a new one.
// Either way each must leave within the bound (generously padded).
func TestRealnetDeferredWindow(t *testing.T) {
	a, _, col, addrA, addrB := warmPair(t)
	a.Send(addrA, addrB, "defer:first")
	a.Send(addrA, addrB, "vote")
	col.wait(t, 3, 5*time.Second)
	for i, payload := range []string{"defer:second", "defer:third"} {
		start := time.Now()
		a.Send(addrA, addrB, payload)
		msgs := col.wait(t, 4+i, 50*deferBound)
		if got := msgs[3+i].Payload; got != payload {
			t.Fatalf("got %v, want %s", got, payload)
		}
		if waited := time.Since(start); waited > 50*deferBound {
			t.Fatalf("%s took %v on an idle link (bound %v)", payload, waited, deferBound)
		}
	}
	waitFor(t, time.Second, "the outbox to drain", func() bool { return a.unsent.Load() == 0 })
}

// TestRealnetDeferredRidesAlong requires a deferred frame to leave with the
// next regular frame to the same peer, ahead of it: two frames, one write,
// in send order.
func TestRealnetDeferredRidesAlong(t *testing.T) {
	a, _, col, addrA, addrB := warmPair(t)
	seen := 1
	// The pair of sends must land inside one deferBound; a descheduled test
	// goroutine can miss it, so a few attempts are allowed.
	for attempt := 0; attempt < 10; attempt++ {
		before := a.StatsSnapshot()
		a.Send(addrA, addrB, "defer:decide")
		a.Send(addrA, addrB, "propose")
		seen += 2
		msgs := col.wait(t, seen, 5*time.Second)
		if msgs[seen-2].Payload != "defer:decide" || msgs[seen-1].Payload != "propose" {
			t.Fatalf("order: %v, %v", msgs[seen-2].Payload, msgs[seen-1].Payload)
		}
		waitFor(t, time.Second, "the outbox to drain", func() bool { return a.unsent.Load() == 0 })
		after := a.StatsSnapshot()
		if after.Sent-before.Sent != 2 {
			t.Fatalf("sent %d frames, want 2", after.Sent-before.Sent)
		}
		if after.Writes-before.Writes == 1 {
			return
		}
	}
	t.Fatal("a deferred frame never shared a write with the next regular frame")
}

// TestRealnetOutboxOrder has one sender mix deferrable and regular frames to
// one peer, with pauses about as long as the deferral window so the window's
// timer closes some windows mid-stream and the writer takes others: the
// receiver must see every frame in send order.
func TestRealnetOutboxOrder(t *testing.T) {
	a, _, col, addrA, addrB := warmPair(t)
	const frames = 400
	for i := 0; i < frames; i++ {
		payload := fmt.Sprintf("f%03d", i)
		if i%3 != 0 {
			payload = "defer:" + payload
		}
		a.Send(addrA, addrB, payload)
		if i%17 == 0 {
			time.Sleep(deferBound)
		}
	}
	msgs := col.wait(t, frames+1, 10*time.Second)
	for i, m := range msgs[1:] {
		if got := strings.TrimPrefix(m.Payload.(string), "defer:"); got != fmt.Sprintf("f%03d", i) {
			t.Fatalf("frame %d is %v", i, m.Payload)
		}
	}
}

// TestRealnetDeferredFlushedByClose parks a frame and closes the transport
// at once: the frame must still arrive.
func TestRealnetDeferredFlushedByClose(t *testing.T) {
	a, _, col, addrA, addrB := warmPair(t)
	a.Send(addrA, addrB, "defer:last-words")
	a.Close()
	if got := a.unsent.Load(); got != 0 {
		t.Fatalf("unsent = %d after Close", got)
	}
	msgs := col.wait(t, 2, 5*time.Second)
	if msgs[1].Payload != "defer:last-words" {
		t.Fatalf("got %+v", msgs[1])
	}
}

// TestRealnetDeferredCountedByQuiesce requires Quiesce to flush parked
// frames rather than report an idle transport while it still holds one.
func TestRealnetDeferredCountedByQuiesce(t *testing.T) {
	a, _, col, addrA, addrB := warmPair(t)
	sent := a.StatsSnapshot().Sent
	a.Send(addrA, addrB, "defer:span")
	if !a.Quiesce(5 * time.Second) {
		t.Fatal("transport did not quiesce")
	}
	if got := a.unsent.Load(); got != 0 {
		t.Fatalf("Quiesce returned with %d frames unsent", got)
	}
	if got := a.StatsSnapshot().Sent; got != sent+1 {
		t.Fatalf("Quiesce returned before the parked frame was written (sent %d -> %d)", sent, got)
	}
	col.wait(t, 2, 5*time.Second)
}

// TestRealnetDeferredDroppedWhenDown kills the peer and requires parked
// frames to be dropped — and counted — with the queue once the writer gives
// up on it, instead of waiting for a peer that may never return.
func TestRealnetDeferredDroppedWhenDown(t *testing.T) {
	a, b, _, addrA, addrB := warmPair(t)
	base := a.StatsSnapshot()
	b.Close()

	total := uint64(0)
	deadline := time.Now().Add(5 * time.Second)
	for a.StatsSnapshot().Dropped == base.Dropped {
		if time.Now().After(deadline) {
			t.Fatal("nothing dropped for a dead peer")
		}
		a.Send(addrA, addrB, "probe")
		a.Send(addrA, addrB, "defer:span")
		total += 2
		time.Sleep(5 * time.Millisecond)
	}
	// One more, parked against a peer the writer gave up on: its flush
	// finds the peer still unreachable and drops it.
	a.Send(addrA, addrB, "defer:late")
	total++
	if !a.Quiesce(5 * time.Second) {
		t.Fatalf("deferred frames outlived a down peer (%d unsent)", a.unsent.Load())
	}
	waitFor(t, 5*time.Second, "every frame to be sent or dropped", func() bool {
		st := a.StatsSnapshot()
		return st.Sent-base.Sent+st.Dropped-base.Dropped == total
	})
}

// TestRealnetOutboxDepthDrop stalls the writer in dial backoff with one
// frame in hand, then overfills the outbox: frames beyond QueueDepth, of
// either kind, are dropped and counted at the source, and Close drops what
// the outbox still holds.
func TestRealnetOutboxDepthDrop(t *testing.T) {
	cfg := fastCfg("", map[simnet.Region]string{"b": reserveAddr(t)})
	cfg.QueueDepth = 4
	cfg.BackoffBase = time.Second
	cfg.BackoffMax = time.Second
	var dialFailed atomic.Bool
	cfg.Logf = func(format string, args ...any) {
		if strings.HasPrefix(format, "realnet: dial") {
			dialFailed.Store(true)
		}
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addrA := simnet.Addr{Region: "a", Name: "coord"}
	addrB := simnet.Addr{Region: "b", Name: "replica"}
	a.Send(addrA, addrB, "stalled")
	waitFor(t, 5*time.Second, "a failed dial", dialFailed.Load)
	for i := 0; i < cfg.QueueDepth+3; i++ {
		payload := fmt.Sprintf("f%d", i)
		if i%2 == 0 {
			payload = "defer:" + payload
		}
		a.Send(addrA, addrB, payload)
	}
	if got := a.StatsSnapshot().Dropped; got != 3 {
		t.Fatalf("dropped %d frames past a full outbox, want 3", got)
	}
	if got := a.unsent.Load(); got != int64(cfg.QueueDepth)+1 {
		t.Fatalf("unsent = %d, want the outbox and the frame in hand", got)
	}
	a.Close()
	if st := a.StatsSnapshot(); st.Dropped != uint64(cfg.QueueDepth)+4 || st.Sent != 0 {
		t.Fatalf("after Close: sent %d, dropped %d; want every frame dropped", st.Sent, st.Dropped)
	}
}

// TestRealnetDeferredDroppedByCut cuts the link while a deferred frame waits
// in the outbox: the writer drops it, counted, instead of sending it.
func TestRealnetDeferredDroppedByCut(t *testing.T) {
	a, _, col, addrA, addrB := warmPair(t)
	// The cut must land inside the frame's deferral window; a descheduled
	// test goroutine can miss it, so a few attempts are allowed.
	for attempt := 0; attempt < 10; attempt++ {
		before := a.StatsSnapshot()
		a.Send(addrA, addrB, "defer:decide")
		a.CutPeer("b", true)
		if !a.Quiesce(5 * time.Second) {
			t.Fatalf("outbox not drained under a cut (%d unsent)", a.unsent.Load())
		}
		after := a.StatsSnapshot()
		a.CutPeer("b", false)
		if after.Sent == before.Sent {
			if after.Dropped != before.Dropped+1 {
				t.Fatalf("dropped %d -> %d, want the deferred frame", before.Dropped, after.Dropped)
			}
			if n := col.count(); n != 1+attempt {
				t.Fatalf("receiver got %d frames, want %d", n, 1+attempt)
			}
			return
		}
		col.wait(t, 2+attempt, 5*time.Second)
	}
	t.Fatal("the cut never landed inside a deferral window")
}

// TestRealnetCloseDropsParkedForGonePeer: at Close, a frame parked on a
// peer that refuses connections is dropped and counted at once, with no
// dial and no wait for the flush bound.
func TestRealnetCloseDropsParkedForGonePeer(t *testing.T) {
	a, err := New(fastCfg("", map[simnet.Region]string{"b": reserveAddr(t)}))
	if err != nil {
		t.Fatal(err)
	}
	a.Send(simnet.Addr{Region: "a", Name: "coord"}, simnet.Addr{Region: "b", Name: "coord"}, "defer:span")
	start := time.Now()
	a.Close()
	if took := time.Since(start); took >= 20*time.Millisecond {
		t.Errorf("Close took %v with one frame parked on a gone peer, want under 20ms", took)
	}
	if got := a.StatsSnapshot().Dropped; got != 1 {
		t.Errorf("Dropped = %d after Close, want the parked frame", got)
	}
}

// TestWholeFrames pins the partial-write accounting: only frames the socket
// took whole are skipped on retry.
func TestWholeFrames(t *testing.T) {
	frames := [][]byte{make([]byte, 3), make([]byte, 5), make([]byte, 2)}
	for _, tc := range []struct {
		n    int64
		want int
	}{{0, 0}, {2, 0}, {3, 1}, {7, 1}, {8, 2}, {9, 2}, {10, 3}} {
		if got := wholeFrames(frames, tc.n); got != tc.want {
			t.Errorf("wholeFrames(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestRealnetDeferredAfterClose sends a deferrable frame into a closed
// transport: with no writer left it is dropped at once, not parked forever.
func TestRealnetDeferredAfterClose(t *testing.T) {
	a, _, _, addrA, addrB := warmPair(t)
	a.Close()
	dropped := a.StatsSnapshot().Dropped
	a.Send(addrA, addrB, "defer:too-late")
	if got := a.unsent.Load(); got != 0 {
		t.Fatalf("unsent = %d on a closed transport", got)
	}
	if got := a.StatsSnapshot().Dropped; got != dropped+1 {
		t.Fatalf("dropped %d -> %d, want one more", dropped, got)
	}
}
