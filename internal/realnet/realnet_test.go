package realnet

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"planet/internal/simnet"
)

// testCodec encodes string payloads (tag 's' + bytes) and byte-slice
// payloads (tag 'b' + bytes; decoded into a copy, as the Codec contract
// asks). Anything else errors, and decoding an empty buffer or unknown tag
// errors — enough structure to exercise framing, corruption handling, and
// reconnects without dragging the protocol package in.
type testCodec struct{}

func (testCodec) Append(dst []byte, m any) ([]byte, error) {
	switch m := m.(type) {
	case string:
		return append(append(dst, 's'), m...), nil
	case []byte:
		return append(append(dst, 'b'), m...), nil
	}
	return dst, fmt.Errorf("testCodec: cannot encode %T", m)
}

func (testCodec) Decode(data []byte) (any, error) {
	switch {
	case len(data) > 0 && data[0] == 's':
		return string(data[1:]), nil
	case len(data) > 0 && data[0] == 'b':
		return append([]byte{}, data[1:]...), nil
	}
	return nil, fmt.Errorf("testCodec: bad payload")
}

// Deferrable marks payloads prefixed "defer:" as fire-and-forget bookkeeping
// (the role span reports play for mdcc.WireCodec).
func (testCodec) Deferrable(m any) bool {
	s, ok := m.(string)
	return ok && strings.HasPrefix(s, "defer:")
}

// collector is a handler that records messages and signals arrivals.
type collector struct {
	mu   sync.Mutex
	msgs []simnet.Message
	ch   chan simnet.Message
}

func newCollector() *collector {
	return &collector{ch: make(chan simnet.Message, 128)}
}

func (c *collector) handle(m simnet.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
	c.ch <- m
}

// count returns how many messages have arrived.
func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) wait(t *testing.T, n int, timeout time.Duration) []simnet.Message {
	t.Helper()
	deadline := time.After(timeout)
	for {
		c.mu.Lock()
		got := len(c.msgs)
		c.mu.Unlock()
		if got >= n {
			c.mu.Lock()
			defer c.mu.Unlock()
			return append([]simnet.Message(nil), c.msgs...)
		}
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("timed out waiting for %d messages (have %d)", n, got)
		}
	}
}

// fastCfg returns a config with short timeouts so failure tests stay quick.
func fastCfg(listen string, peers map[simnet.Region]string) Config {
	return Config{
		Listen:       listen,
		Peers:        peers,
		Codec:        testCodec{},
		DialTimeout:  200 * time.Millisecond,
		WriteTimeout: 200 * time.Millisecond,
		BackoffBase:  5 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		Seed:         1,
	}
}

func newPair(t *testing.T) (a, b *Transport) {
	t.Helper()
	// Bind both listeners first so each side can point at the other.
	a, err := New(fastCfg("127.0.0.1:0", nil))
	if err != nil {
		t.Fatal(err)
	}
	b, err = New(fastCfg("127.0.0.1:0", map[simnet.Region]string{"a": a.ListenAddr()}))
	if err != nil {
		t.Fatal(err)
	}
	// a learns b's resolved address via a fresh transport config — instead,
	// rebuild a with the peer map now that b's address is known.
	a.Close()
	a2, err := New(fastCfg(a.ListenAddr(), map[simnet.Region]string{"b": b.ListenAddr()}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a2.Close(); b.Close() })
	return a2, b
}

func TestRealnetLocalDelivery(t *testing.T) {
	tr, err := New(fastCfg("", nil))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	col := newCollector()
	to := simnet.Addr{Region: "local", Name: "replica"}
	tr.Register(to, col.handle)
	from := simnet.Addr{Region: "local", Name: "coord"}
	tr.Send(from, to, "hello")
	tr.SendBatch(from, to, []any{"b1", "b2", "b3"})
	msgs := col.wait(t, 4, 2*time.Second)
	if msgs[0].Payload != "hello" || msgs[1].Payload != "b1" ||
		msgs[2].Payload != "b2" || msgs[3].Payload != "b3" {
		t.Fatalf("wrong payloads/order: %+v", msgs)
	}
	if msgs[0].From != from || msgs[0].To != to {
		t.Fatalf("wrong envelope: %+v", msgs[0])
	}
}

// TestRealnetHandlerMaySend asserts the contract handlers rely on: sending
// to a co-located address from inside a delivery callback cannot deadlock.
func TestRealnetHandlerMaySend(t *testing.T) {
	tr, err := New(fastCfg("", nil))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	a := simnet.Addr{Region: "local", Name: "a"}
	b := simnet.Addr{Region: "local", Name: "b"}
	col := newCollector()
	tr.Register(a, func(m simnet.Message) {
		// Echo every ping back to b from inside the callback.
		tr.Send(a, b, "pong:"+m.Payload.(string))
	})
	tr.Register(b, col.handle)
	for i := 0; i < 10; i++ {
		tr.Send(b, a, fmt.Sprintf("ping%d", i))
	}
	msgs := col.wait(t, 10, 2*time.Second)
	if msgs[0].Payload != "pong:ping0" {
		t.Fatalf("unexpected first reply %v", msgs[0].Payload)
	}
}

func TestRealnetRemoteRoundTrip(t *testing.T) {
	a, b := newPair(t)
	colB := newCollector()
	addrA := simnet.Addr{Region: "a", Name: "coord"}
	addrB := simnet.Addr{Region: "b", Name: "replica"}
	b.Register(addrB, colB.handle)

	a.Send(addrA, addrB, "over-tcp")
	a.SendBatch(addrA, addrB, []any{"x", "y"})
	msgs := colB.wait(t, 3, 5*time.Second)
	if msgs[0].Payload != "over-tcp" || msgs[0].From != addrA || msgs[0].To != addrB {
		t.Fatalf("bad first message: %+v", msgs[0])
	}
	if msgs[1].Payload != "x" || msgs[2].Payload != "y" {
		t.Fatalf("batch order broken: %+v", msgs[1:])
	}

	// And the reverse direction.
	colA := newCollector()
	a.Register(addrA, colA.handle)
	b.Send(addrB, addrA, "reply")
	got := colA.wait(t, 1, 5*time.Second)
	if got[0].Payload != "reply" {
		t.Fatalf("bad reply: %+v", got[0])
	}
}

// TestRealnetReconnect kills the remote transport, sends until the writer
// gives up on it, restarts it on the same port, and requires the next sends
// to redial — with traffic flowing again and Reconnects counted.
func TestRealnetReconnect(t *testing.T) {
	a, b := newPair(t)
	addrA := simnet.Addr{Region: "a", Name: "coord"}
	addrB := simnet.Addr{Region: "b", Name: "replica"}
	col := newCollector()
	b.Register(addrB, col.handle)
	a.Send(addrA, addrB, "warmup")
	col.wait(t, 1, 5*time.Second)

	bAddr := b.ListenAddr()
	b.Close()
	// Push sends until the writer drops a batch (dropAfter failures).
	deadline := time.Now().Add(5 * time.Second)
	for a.StatsSnapshot().Dropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no send to a dead peer was dropped")
		}
		a.Send(addrA, addrB, "probe")
		time.Sleep(10 * time.Millisecond)
	}

	// Resurrect b on the same port.
	b2, err := New(fastCfg(bAddr, map[simnet.Region]string{"a": a.ListenAddr()}))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	col2 := newCollector()
	b2.Register(addrB, col2.handle)

	// Sends redial; one arrives.
	deadline = time.Now().Add(5 * time.Second)
	for col2.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no send reached the restarted peer")
		}
		a.Send(addrA, addrB, "after-restart")
		time.Sleep(10 * time.Millisecond)
	}
	if got := col2.wait(t, 1, 5*time.Second); got[0].Payload != "after-restart" {
		t.Fatalf("bad post-restart payload: %+v", got[0])
	}
	if a.StatsSnapshot().Reconnects == 0 {
		t.Fatal("expected a recorded reconnect")
	}
}

func TestRealnetCutPeer(t *testing.T) {
	a, b := newPair(t)
	addrA := simnet.Addr{Region: "a", Name: "coord"}
	addrB := simnet.Addr{Region: "b", Name: "replica"}
	col := newCollector()
	b.Register(addrB, col.handle)
	a.Send(addrA, addrB, "before")
	col.wait(t, 1, 5*time.Second)

	a.CutPeer("b", true)
	dropped := a.StatsSnapshot().Dropped
	a.Send(addrA, addrB, "lost")
	if got := a.StatsSnapshot().Dropped; got != dropped+1 {
		t.Fatalf("cut send should drop at source (dropped %d -> %d)", dropped, got)
	}

	a.CutPeer("b", false)
	a.Send(addrA, addrB, "after-heal")
	msgs := col.wait(t, 2, 5*time.Second)
	if msgs[1].Payload != "after-heal" {
		t.Fatalf("bad post-heal payload: %+v", msgs[1])
	}
}

// TestRealnetInboundCut drops frames from a cut region at delivery, the
// receiving half of a partition.
func TestRealnetInboundCut(t *testing.T) {
	a, b := newPair(t)
	addrA := simnet.Addr{Region: "a", Name: "coord"}
	addrB := simnet.Addr{Region: "b", Name: "replica"}
	col := newCollector()
	b.Register(addrB, col.handle)

	b.CutPeer("a", true)
	a.Send(addrA, addrB, "should-not-arrive")
	// Wait until the frame has been received (Dropped counts it) rather
	// than sleeping blind.
	deadline := time.Now().Add(5 * time.Second)
	for b.StatsSnapshot().Dropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("inbound frame never accounted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	b.CutPeer("a", false)
	a.Send(addrA, addrB, "arrives")
	msgs := col.wait(t, 1, 5*time.Second)
	if msgs[0].Payload != "arrives" {
		t.Fatalf("got %+v", msgs[0])
	}
}

// TestRealnetCorruptFrame writes garbage to the listener and requires the
// transport to close that connection, count a decode error, and keep
// serving valid traffic — never panicking.
func TestRealnetCorruptFrame(t *testing.T) {
	a, b := newPair(t)
	addrA := simnet.Addr{Region: "a", Name: "coord"}
	addrB := simnet.Addr{Region: "b", Name: "replica"}
	col := newCollector()
	b.Register(addrB, col.handle)

	for _, garbage := range [][]byte{
		{0xff, 0xff, 0xff, 0xff},                          // absurd length
		{0x00, 0x00, 0x00, 0x00},                          // zero length
		{0x00, 0x00, 0x00, 0x03, 0x01, 0x02, 0x03},        // undecodable body
		{0x00, 0x00, 0x00, 0x05, 0x01, 'a', 0x01, 'b', 9}, // truncated payloads
	} {
		c, err := net.Dial("tcp", b.ListenAddr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(garbage); err != nil {
			t.Fatal(err)
		}
		// The transport must hang up on us.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1)
		if _, err := c.Read(buf); err == nil {
			t.Fatal("transport kept a corrupt connection open")
		}
		c.Close()
	}
	if b.StatsSnapshot().DecodeErrors == 0 {
		t.Fatal("decode errors not counted")
	}
	// Valid traffic still flows.
	a.Send(addrA, addrB, "still-alive")
	msgs := col.wait(t, 1, 5*time.Second)
	if msgs[0].Payload != "still-alive" {
		t.Fatalf("got %+v", msgs[0])
	}
}

func TestRealnetDropRestoreListener(t *testing.T) {
	a, b := newPair(t)
	addrA := simnet.Addr{Region: "a", Name: "coord"}
	addrB := simnet.Addr{Region: "b", Name: "replica"}
	col := newCollector()
	b.Register(addrB, col.handle)
	a.Send(addrA, addrB, "pre")
	col.wait(t, 1, 5*time.Second)

	b.DropListener()
	// Drive sends until the writer drops one (the severed conn plus failed
	// dials).
	deadline := time.Now().Add(5 * time.Second)
	for a.StatsSnapshot().Dropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no send was dropped after the listener drop")
		}
		a.Send(addrA, addrB, "void")
		time.Sleep(10 * time.Millisecond)
	}

	if err := b.RestoreListener(); err != nil {
		t.Fatal(err)
	}
	before := len(col.wait(t, 1, time.Second))
	deadline = time.Now().Add(5 * time.Second)
	for {
		a.Send(addrA, addrB, "post")
		time.Sleep(10 * time.Millisecond)
		if col.count() > before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no send arrived after the listener came back")
		}
	}
}

// TestRealnetCloseIdempotent double-closes and sends after close without
// panicking.
func TestRealnetCloseIdempotent(t *testing.T) {
	tr, err := New(fastCfg("127.0.0.1:0", nil))
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	tr.Close()
	tr.Send(simnet.Addr{Region: "x"}, simnet.Addr{Region: "x"}, "late")
}
