// Package realnet is the deployment transport: it carries the commit
// protocol's messages between planetd processes over real TCP, implementing
// the same Transport contract internal/simnet provides in-process.
//
// Robustness is the design center. Frames are length-prefixed and strictly
// validated — a truncated or corrupt frame closes the connection without
// panicking the receiver, and the sender reconnects. Outbound connections
// are managed per peer with lazy dials, jittered exponential backoff (the
// semantics of internal/core/retry.go) and per-write deadlines; a writer
// that fails dropAfter times in a row drops its batch. The transport keeps
// no opinion of a peer's health: the coordinator's failure detector
// (internal/mdcc, detector.go) judges peers from the frames it sends and
// receives, the same on simnet and on TCP.
//
// Syscalls are the cost center on a loopback or LAN deployment, so both
// directions batch: a peer's writer sends what its outbox holds, in send
// order, with one vectored write, inbound connections are read through a
// buffer that takes as many frames per read as the kernel has, and frames
// whose payloads the codec declares deferrable (see Deferrer) wait in the
// outbox for the next write to the peer — at most deferBound — instead of
// costing their own.
//
// Copies are the next cost, so neither direction makes one per frame: the
// codec encodes each payload straight into its outbound frame, and an
// inbound frame that fits the read buffer is decoded where it lies. That
// puts one rule on the Codec: Decode copies whatever it keeps.
//
// The transport deliberately promises no more than simnet does: delivery is
// at-most-once, unordered across frames, and frames are dropped when a peer
// is down, cut, or its queue is full. The protocol is built on idempotence
// and retry, never on transport reliability.
package realnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"planet/internal/simnet"
	"planet/internal/vclock"
)

// Codec serializes protocol payloads. mdcc.WireCodec implements it; the
// interface lives here (structurally typed) so realnet stays independent of
// the protocol package.
//
// Append encodes m onto the end of dst, which holds the frame built so far,
// and returns the extended slice. Decode copies what it keeps: data is the
// transport's read buffer, overwritten once Decode returns, so the decoded
// value must share no memory with it.
type Codec interface {
	Append(dst []byte, m any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// Deferrer is optionally implemented by a Codec. A payload it reports
// deferrable is a message no step of its sender waits on: a frame made only
// of such payloads joins its peer's outbox without waking the writer, and
// leaves, in send order, with the next write to that peer, or after
// deferBound on an idle link, and on Quiesce and Close. Nothing else about
// its delivery changes.
type Deferrer interface {
	Deferrable(m any) bool
}

// DefaultMaxFrame is Config.MaxFrame's default, 16 MiB.
const DefaultMaxFrame = 16 << 20

const (
	// deferBound is the longest a deferrable frame waits for company.
	deferBound = 2 * time.Millisecond
	// maxCoalesce bounds the frames one vectored write carries.
	maxCoalesce = 64
	// readBufSize is each inbound connection's read buffer.
	readBufSize = 32 << 10
	// closeFlushBound is how long Close waits for outboxes to leave over
	// live connections.
	closeFlushBound = 100 * time.Millisecond
)

// Config parameterizes a Transport.
type Config struct {
	// Listen is the TCP address to accept peer connections on, e.g.
	// "127.0.0.1:7101". Empty means outbound-only (tests).
	Listen string
	// Peers maps every REMOTE region to its transport address. The local
	// region must not appear: any destination region without an entry is
	// treated as local and delivered in-process.
	Peers map[simnet.Region]string
	// Codec encodes and decodes payloads. Required.
	Codec Codec
	// Clock is the time source handed to the protocol layers. Defaults to
	// vclock.System (a real deployment runs on real time).
	Clock vclock.Clock

	// DialTimeout bounds one connection attempt. Default 2s.
	DialTimeout time.Duration
	// WriteTimeout bounds one frame write. Default 2s.
	WriteTimeout time.Duration
	// BackoffBase/BackoffMax shape reconnect backoff: base doubling per
	// consecutive failure to the cap, jittered by [0.5, 1.5). Defaults
	// 50ms / 2s — the internal/core/retry.go constants.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// QueueDepth bounds each peer's outbound frame queue; overflow drops.
	// Default 1024.
	QueueDepth int
	// MaxFrame bounds one frame body in bytes, both directions. Default
	// DefaultMaxFrame.
	MaxFrame int
	// InboundDelay, when positive, delays every delivery (local and
	// remote) by that duration. Tests use it to widen protocol windows —
	// e.g. the gap between option-accept and decision — that loopback TCP
	// makes vanishingly small.
	InboundDelay time.Duration
	// Seed seeds reconnect jitter. Zero picks an arbitrary seed.
	Seed int64
	// Logf, when non-nil, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

// Stats counts transport activity (all fields atomic).
type Stats struct {
	Sent         atomic.Uint64 // frames written to a socket
	Writes       atomic.Uint64 // socket writes (each carries one or more frames)
	Reads        atomic.Uint64 // socket reads (each returns zero or more frames)
	Delivered    atomic.Uint64 // payloads handed to a handler
	Dropped      atomic.Uint64 // payloads or frames discarded
	DecodeErrors atomic.Uint64 // corrupt frames (each closed a connection)
	Reconnects   atomic.Uint64 // successful re-dials after a drop
}

// StatsSnapshot is a plain-value copy of Stats for APIs and logs.
type StatsSnapshot struct {
	Sent         uint64 `json:"sent"`
	Writes       uint64 `json:"writes"`
	Reads        uint64 `json:"reads"`
	Delivered    uint64 `json:"delivered"`
	Dropped      uint64 `json:"dropped"`
	DecodeErrors uint64 `json:"decode_errors"`
	Reconnects   uint64 `json:"reconnects"`
}

// Transport speaks the commit protocol over TCP. It satisfies the same
// interface as simnet.Network (mdcc's Transport).
type Transport struct {
	cfg    Config
	clk    vclock.Clock
	lnAddr string // resolved listen address (meaningful with Listen ":0")
	// deferrable reports whether a payload may wait for the next write to
	// its peer (nil when the codec is not a Deferrer).
	deferrable func(m any) bool

	mu       sync.Mutex
	ln       net.Listener
	lnDown   bool
	handlers map[simnet.Addr]simnet.Handler
	peers    map[simnet.Region]*peer
	cut      map[simnet.Region]bool
	conns    map[net.Conn]struct{} // inbound connections

	// closing is closed when Close begins (under mu), done when it has
	// flushed what it flushes.
	closing chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup

	// Loopback deliveries run on a dedicated dispatcher goroutine, so a
	// send to a co-located destination stays asynchronous and FIFO like a
	// remote frame (the sender's handler never runs the receiver's inline),
	// and Quiesce counts it until it is delivered.
	lbMu      sync.Mutex
	lbCond    *sync.Cond
	lbQueue   []localDelivery
	lbClosed  bool
	pendingLB atomic.Int64
	// unsent counts frames in a peer's outbox or its writer's hands:
	// Quiesce and Close wait for it to reach zero.
	unsent atomic.Int64

	stats Stats
}

// localDelivery is one queued loopback send (a batch delivers its payloads
// back to back, mirroring simnet).
type localDelivery struct {
	msg   simnet.Message
	batch []any // nil for single-payload sends
}

// New starts a Transport: it binds the listener (when configured), launches
// the accept loop, the loopback dispatcher, and one writer per peer.
func New(cfg Config) (*Transport, error) {
	if cfg.Codec == nil {
		return nil, fmt.Errorf("realnet: Config.Codec is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.System
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 2 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.Seed == 0 {
		cfg.Seed = time.Now().UnixNano()
	}
	t := &Transport{
		cfg:      cfg,
		clk:      cfg.Clock,
		handlers: make(map[simnet.Addr]simnet.Handler),
		peers:    make(map[simnet.Region]*peer, len(cfg.Peers)),
		cut:      make(map[simnet.Region]bool),
		conns:    make(map[net.Conn]struct{}),
		closing:  make(chan struct{}),
		done:     make(chan struct{}),
	}
	t.lbCond = sync.NewCond(&t.lbMu)
	if d, ok := cfg.Codec.(Deferrer); ok {
		t.deferrable = d.Deferrable
	}
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("realnet: listen %s: %w", cfg.Listen, err)
		}
		t.ln = ln
		t.lnAddr = ln.Addr().String()
		t.wg.Add(1)
		go t.acceptLoop(ln)
	}
	t.wg.Add(1)
	go t.dispatcher()
	seed := cfg.Seed
	for region, addr := range cfg.Peers {
		seed++
		p := &peer{
			t:      t,
			region: region,
			addr:   addr,
			wake:   make(chan struct{}, 1),
			rng:    rand.New(rand.NewSource(seed)),
		}
		t.peers[region] = p
		t.wg.Add(1)
		go p.run()
	}
	return t, nil
}

func (t *Transport) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// Clock returns the transport's time source (mdcc.Transport contract).
func (t *Transport) Clock() vclock.Clock { return t.clk }

// ClockFor returns Clock() for any region (mdcc.Transport contract).
func (t *Transport) ClockFor(simnet.Region) vclock.Clock { return t.clk }

// ListenAddr returns the resolved listen address ("" when outbound-only).
func (t *Transport) ListenAddr() string { return t.lnAddr }

// StatsSnapshot returns a point-in-time copy of the activity counters.
func (t *Transport) StatsSnapshot() StatsSnapshot {
	return StatsSnapshot{
		Sent:         t.stats.Sent.Load(),
		Writes:       t.stats.Writes.Load(),
		Reads:        t.stats.Reads.Load(),
		Delivered:    t.stats.Delivered.Load(),
		Dropped:      t.stats.Dropped.Load(),
		DecodeErrors: t.stats.DecodeErrors.Load(),
		Reconnects:   t.stats.Reconnects.Load(),
	}
}

// Register installs the handler for addr, replacing any previous one.
func (t *Transport) Register(addr simnet.Addr, h simnet.Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[addr] = h
}

// Deregister removes addr; frames already in flight to it are dropped.
func (t *Transport) Deregister(addr simnet.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.handlers, addr)
}

func (t *Transport) handlerFor(addr simnet.Addr) simnet.Handler {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.handlers[addr]
}

// Send schedules one payload for delivery (mdcc.Transport contract).
func (t *Transport) Send(from, to simnet.Addr, payload any) {
	t.route(from, to, payload, nil)
}

// SendBatch schedules payloads as one frame, delivered back to back.
func (t *Transport) SendBatch(from, to simnet.Addr, payloads []any) {
	if len(payloads) == 0 {
		return
	}
	t.route(from, to, nil, payloads)
}

// route sends either a single payload (batch == nil) or a batch: local
// destinations go through the loopback queue, remote ones are framed and
// join the peer's outbox. Both paths return without blocking.
func (t *Transport) route(from, to simnet.Addr, payload any, batch []any) {
	p, remote := t.peerFor(to.Region)
	if !remote {
		t.enqueueLocal(localDelivery{
			msg:   simnet.Message{From: from, To: to, Payload: payload, SentAt: t.clk.Now()},
			batch: batch,
		})
		return
	}
	if t.isCut(to.Region) {
		t.stats.Dropped.Add(1)
		return
	}
	payloads := batch
	if payloads == nil {
		payloads = []any{payload}
	}
	frame, err := t.encodeFrame(from, to, payloads)
	if err != nil {
		t.logf("%v", err)
		t.stats.Dropped.Add(1)
		return
	}
	p.push(frame, t.canDefer(payloads))
}

// canDefer reports whether every payload of a frame is deferrable.
func (t *Transport) canDefer(payloads []any) bool {
	if t.deferrable == nil {
		return false
	}
	for _, m := range payloads {
		if !t.deferrable(m) {
			return false
		}
	}
	return true
}

func (t *Transport) peerFor(region simnet.Region) (*peer, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.peers[region]
	return p, ok
}

// enqueueLocal appends a loopback delivery for the dispatcher goroutine,
// honoring InboundDelay.
func (t *Transport) enqueueLocal(d localDelivery) {
	if delay := t.cfg.InboundDelay; delay > 0 {
		t.pendingLB.Add(1)
		time.AfterFunc(delay, func() { t.pushLocal(d, false) })
		return
	}
	t.pushLocal(d, true)
}

func (t *Transport) pushLocal(d localDelivery, count bool) {
	if count {
		t.pendingLB.Add(1)
	}
	t.lbMu.Lock()
	if t.lbClosed {
		t.lbMu.Unlock()
		t.pendingLB.Add(-1)
		t.stats.Dropped.Add(1)
		return
	}
	t.lbQueue = append(t.lbQueue, d)
	t.lbMu.Unlock()
	t.lbCond.Signal()
}

// dispatcher drains the loopback queue, invoking handlers outside every
// transport lock.
func (t *Transport) dispatcher() {
	defer t.wg.Done()
	for {
		t.lbMu.Lock()
		for len(t.lbQueue) == 0 && !t.lbClosed {
			t.lbCond.Wait()
		}
		if len(t.lbQueue) == 0 {
			t.lbMu.Unlock()
			return
		}
		d := t.lbQueue[0]
		t.lbQueue[0] = localDelivery{}
		t.lbQueue = t.lbQueue[1:]
		t.lbMu.Unlock()
		t.deliver(d.msg, d.batch)
		t.pendingLB.Add(-1)
	}
}

// deliver hands one message (or batch) to its handler.
func (t *Transport) deliver(msg simnet.Message, batch []any) {
	h := t.handlerFor(msg.To)
	if h == nil {
		if batch == nil {
			t.stats.Dropped.Add(1)
		} else {
			t.stats.Dropped.Add(uint64(len(batch)))
		}
		return
	}
	if batch == nil {
		t.stats.Delivered.Add(1)
		h(msg)
		return
	}
	for _, p := range batch {
		msg.Payload = p
		t.stats.Delivered.Add(1)
		h(msg)
	}
}

// acceptLoop admits inbound peer connections.
func (t *Transport) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed (shutdown or DropListener)
		}
		t.mu.Lock()
		if t.isClosing() || t.lnDown {
			t.mu.Unlock()
			c.Close()
			continue
		}
		t.conns[c] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(c)
	}
}

// countingReader counts the reads a buffered reader issues on a socket.
type countingReader struct {
	r io.Reader
	n *atomic.Uint64
}

func (c countingReader) Read(p []byte) (int, error) {
	c.n.Add(1)
	return c.r.Read(p)
}

// readLoop consumes frames from one inbound connection. Any framing or
// decode error closes the connection — the stream position is unknowable
// after a bad frame, and the sender will reconnect — without ever panicking
// the receiver.
func (t *Transport) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer func() {
		c.Close()
		t.mu.Lock()
		delete(t.conns, c)
		t.mu.Unlock()
	}()
	br := bufio.NewReaderSize(countingReader{c, &t.stats.Reads}, readBufSize)
	var payloads []any // reused frame to frame, cleared after delivery
	for {
		hdr, err := br.Peek(frameHeaderLen)
		if err != nil {
			return // EOF or severed connection: normal churn
		}
		n := int(binary.BigEndian.Uint32(hdr))
		if n == 0 || n > t.cfg.MaxFrame {
			t.stats.DecodeErrors.Add(1)
			t.logf("realnet: inbound frame length %d out of range; closing connection", n)
			return
		}
		// A frame that fits the read buffer is decoded where it lies; a
		// larger one gets a body of its own. The codec copies what it keeps,
		// so nothing delivered aliases either.
		var body []byte
		inPlace := frameHeaderLen+n <= readBufSize
		if inPlace {
			frame, err := br.Peek(frameHeaderLen + n)
			if err != nil {
				return
			}
			body = frame[frameHeaderLen:]
		} else {
			br.Discard(frameHeaderLen)
			body = make([]byte, n)
			if _, err := io.ReadFull(br, body); err != nil {
				return
			}
		}
		var from, to simnet.Addr
		from, to, payloads, err = t.decodeFrame(body, payloads[:0])
		if err != nil {
			t.stats.DecodeErrors.Add(1)
			t.logf("realnet: %v; closing connection", err)
			return
		}
		if inPlace {
			br.Discard(frameHeaderLen + n)
		}
		if t.isCut(from.Region) {
			t.stats.Dropped.Add(uint64(len(payloads)))
		} else {
			if delay := t.cfg.InboundDelay; delay > 0 {
				time.Sleep(delay)
			}
			// Dispatch directly on the read goroutine: a handler's own local
			// sends go through the loopback queue, its remote sends through
			// peer queues, so no re-entrancy is possible.
			msg := simnet.Message{From: from, To: to, SentAt: t.clk.Now()}
			if len(payloads) == 1 {
				msg.Payload = payloads[0]
				t.deliver(msg, nil)
			} else {
				t.deliver(msg, payloads)
			}
		}
		clear(payloads)
	}
}

// --- fault injection ---

// CutPeer severs (or heals) the logical link to a region: outbound frames
// are dropped at the source, inbound frames from it are dropped at
// delivery, and any live outbound connection is closed. Tests use it for
// asymmetric partitions; to the layers above, a cut is silence, as a real
// partition is.
func (t *Transport) CutPeer(region simnet.Region, cut bool) {
	t.mu.Lock()
	t.cut[region] = cut
	p := t.peers[region]
	t.mu.Unlock()
	if cut && p != nil {
		p.closeConn()
	}
}

func (t *Transport) isCut(region simnet.Region) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cut[region]
}

// DropListener stops accepting inbound connections and severs the existing
// ones, simulating a one-way network failure toward this node.
func (t *Transport) DropListener() {
	t.mu.Lock()
	t.lnDown = true
	ln := t.ln
	t.ln = nil
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// RestoreListener re-binds the original listen address after DropListener.
func (t *Transport) RestoreListener() error {
	t.mu.Lock()
	if t.isClosing() || !t.lnDown {
		t.mu.Unlock()
		return nil
	}
	t.mu.Unlock()
	ln, err := net.Listen("tcp", t.lnAddr)
	if err != nil {
		return fmt.Errorf("realnet: re-listen %s: %w", t.lnAddr, err)
	}
	t.mu.Lock()
	if t.isClosing() {
		t.mu.Unlock()
		ln.Close()
		return nil
	}
	t.ln = ln
	t.lnDown = false
	t.mu.Unlock()
	t.wg.Add(1)
	go t.acceptLoop(ln)
	return nil
}

// Quiesce waits until the loopback queue drains and every outbox has been
// written or dropped (it flushes deferrable frames rather than sitting out
// their bound), up to timeout. Frames already on the wire cannot be
// quiesced — the wire has no global view. Matches simnet.Network's
// signature so Cluster can call either.
func (t *Transport) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if t.unsent.Load() != 0 {
			t.mu.Lock()
			for _, p := range t.peers {
				p.kick()
			}
			t.mu.Unlock()
		} else if t.pendingLB.Load() == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// isDone reports whether Close has stopped the writers.
func (t *Transport) isDone() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// isClosing reports whether Close has begun.
func (t *Transport) isClosing() bool {
	select {
	case <-t.closing:
		return true
	default:
		return false
	}
}

// Close shuts the transport down: listener, inbound connections, peer
// writers, and the loopback dispatcher. Outboxes leave first over live
// connections (bounded by closeFlushBound); a peer with no live connection
// drops its outbox, and counts it, without a dial. Idempotent.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.isClosing() {
		t.mu.Unlock()
		return
	}
	close(t.closing)
	peers := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	for _, p := range peers {
		if p.currentConn() == nil {
			p.dropOutbox()
		}
	}
	if t.unsent.Load() != 0 {
		t.Quiesce(closeFlushBound)
	}

	t.mu.Lock()
	ln := t.ln
	t.ln = nil
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	close(t.done)
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	for _, p := range peers {
		p.closeConn()
	}
	t.lbMu.Lock()
	t.lbClosed = true
	t.lbMu.Unlock()
	t.lbCond.Broadcast()
	t.wg.Wait()
}
