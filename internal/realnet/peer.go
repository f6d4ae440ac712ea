package realnet

import (
	"math/rand"
	"net"
	"sync"
	"time"

	"planet/internal/simnet"
)

// dropAfter is the consecutive-failure count (dials and writes) at which a
// writer abandons the batch in hand, with everything queued or parked
// behind it, instead of retrying: the protocol is built on loss, and a long
// outage must not replay stale traffic on reconnect. Until a dial or write
// succeeds again, every later batch gets one dial attempt.
const dropAfter = 3

// peer manages the outbound connection to one remote region: a bounded
// frame queue, a writer goroutine that dials lazily and sends whatever is
// queued with one write, and reconnect with jittered exponential backoff
// mirroring internal/core/retry.go (base doubling per attempt to a cap,
// jitter factor in [0.5, 1.5)).
type peer struct {
	t      *Transport
	region simnet.Region // remote region
	addr   string        // TCP address

	queue chan []byte // encoded frames awaiting write

	// Deferrable frames park here until the writer next sends to this peer.
	// The first frame parked outside a deferral window opens one: parkTimer
	// is armed once for it, and when it fires, deferBound later, the window
	// closes and wakes the writer through flush if frames are still parked.
	// The writer taking frames leaves the window open. parkMu guards
	// parked, parkTimer and inWindow.
	parkMu    sync.Mutex
	parked    [][]byte
	parkTimer *time.Timer
	inWindow  bool
	flush     chan struct{} // capacity 1: parked frames are due

	// connMu guards conn so CutPeer/Close can sever a live connection from
	// outside the writer goroutine.
	connMu sync.Mutex
	conn   net.Conn

	// Writer-goroutine-local reconnect bookkeeping.
	fails     int
	connected bool // a dial has succeeded at least once
	rng       *rand.Rand
	batch     [][]byte    // scratch for gather
	iov       net.Buffers // scratch for vectored writes
}

// enqueue hands a frame to the writer without ever blocking the sender: a
// full queue (peer slower than the workload, or down with frames piling up)
// drops the frame, exactly as a lossy WAN would.
func (p *peer) enqueue(frame []byte) {
	select {
	case p.queue <- frame:
	default:
		p.t.stats.Dropped.Add(1)
	}
}

// park holds a deferrable frame for the writer's next send to this peer,
// opening a deferral window when none is open. Parked frames share the
// queue's depth bound and its overflow policy.
func (p *peer) park(frame []byte) {
	select {
	case <-p.t.done:
		p.t.stats.Dropped.Add(1) // closed: no writer is left to flush it
		return
	default:
	}
	p.parkMu.Lock()
	if len(p.parked) >= p.t.cfg.QueueDepth {
		p.parkMu.Unlock()
		p.t.stats.Dropped.Add(1)
		return
	}
	p.parked = append(p.parked, frame)
	p.t.parked.Add(1)
	if !p.inWindow {
		p.inWindow = true
		if p.parkTimer == nil {
			p.parkTimer = time.AfterFunc(deferBound, p.closeWindow)
		} else {
			p.parkTimer.Reset(deferBound)
		}
	}
	p.parkMu.Unlock()
}

// closeWindow ends a deferral window: frames parked in it and not yet taken
// are due now.
func (p *peer) closeWindow() {
	p.parkMu.Lock()
	p.inWindow = false
	due := len(p.parked) > 0
	p.parkMu.Unlock()
	if due {
		p.kick()
	}
}

// kick wakes the writer to flush parked frames.
func (p *peer) kick() {
	select {
	case p.flush <- struct{}{}:
	default:
	}
}

// takeParked appends the parked frames to dst for the writer (their count
// is the growth of dst). The deferral window stays open: a frame parked in
// it later still leaves by the time it closes.
func (p *peer) takeParked(dst [][]byte) [][]byte {
	p.parkMu.Lock()
	defer p.parkMu.Unlock()
	if len(p.parked) == 0 {
		return dst
	}
	dst = append(dst, p.parked...)
	clear(p.parked)
	p.parked = p.parked[:0]
	return dst
}

// gather collects what one writer wake-up sends: first (nil on a flush
// wake-up), whatever else is already queued up to maxCoalesce frames, then
// every parked frame. parked is how many of the trailing frames count toward
// Transport.parked. The slice is the writer's scratch, valid until the next
// gather.
func (p *peer) gather(first []byte) (frames [][]byte, parked int) {
	frames = p.batch[:0]
	if first != nil {
		frames = append(frames, first)
	drain:
		for len(frames) < maxCoalesce {
			select {
			case f := <-p.queue:
				frames = append(frames, f)
			default:
				break drain
			}
		}
	}
	queued := len(frames)
	frames = p.takeParked(frames)
	p.batch = frames
	return frames, len(frames) - queued
}

// run is the writer loop: pull what is queued and write it, retrying with
// backoff through transient failures.
func (p *peer) run() {
	defer p.t.wg.Done()
	for {
		var first []byte
		select {
		case first = <-p.queue:
		case <-p.flush:
		case <-p.t.done:
			return
		}
		if frames, parked := p.gather(first); len(frames) > 0 {
			p.write(frames)
			p.t.parked.Add(-int64(parked))
		}
	}
}

// write delivers a batch of frames with one socket write, dialing and
// retrying with jittered exponential backoff. After a failed write, frames
// the socket took whole are not sent again (delivery stays at-most-once);
// the rest are retried on a fresh connection. The batch is abandoned
// (dropped, counted) after dropAfter consecutive failures, when the link is
// administratively cut, or when Close finds no live connection; the queue
// is drained along with it so a long outage doesn't replay stale protocol
// traffic on reconnect.
func (p *peer) write(frames [][]byte) {
	for attempt := 0; ; attempt++ {
		select {
		case <-p.t.done:
			return
		default:
		}
		if p.t.isCut(p.region) {
			p.t.stats.Dropped.Add(uint64(len(frames)))
			return
		}
		conn := p.currentConn()
		if conn == nil {
			if p.t.isClosing() {
				p.abandon(frames)
				return
			}
			if conn = p.dial(); conn == nil {
				if p.fails >= dropAfter || !p.sleepBackoff(attempt) {
					p.abandon(frames)
					return
				}
				continue
			}
		}
		conn.SetWriteDeadline(time.Now().Add(p.t.cfg.WriteTimeout))
		n, err := p.writeFrames(conn, frames)
		p.t.stats.Writes.Add(1)
		if err == nil {
			p.fails = 0
			p.t.stats.Sent.Add(uint64(len(frames)))
			return
		}
		whole := wholeFrames(frames, n)
		p.t.stats.Sent.Add(uint64(whole))
		frames = frames[whole:]
		p.t.logf("realnet: write to %s: %v", p.region, err)
		p.closeConn()
		p.fails++
		if p.fails >= dropAfter || !p.sleepBackoff(attempt) {
			p.abandon(frames)
			return
		}
	}
}

// writeFrames sends frames with one write call — vectored when there are
// several — and reports how many bytes the socket took.
func (p *peer) writeFrames(conn net.Conn, frames [][]byte) (int64, error) {
	if len(frames) == 1 {
		n, err := conn.Write(frames[0])
		return int64(n), err
	}
	// WriteTo consumes the slice it is called on; frames must survive for a
	// retry, so it works on the scratch copy.
	p.iov = append(p.iov[:0], frames...)
	bufs := p.iov
	return bufs.WriteTo(conn)
}

// wholeFrames counts the leading frames fully covered by n written bytes.
func wholeFrames(frames [][]byte, n int64) int {
	whole := 0
	for _, f := range frames {
		if n < int64(len(f)) {
			break
		}
		n -= int64(len(f))
		whole++
	}
	return whole
}

// abandon drops the frames in hand and everything queued or parked behind
// them.
func (p *peer) abandon(frames [][]byte) {
	p.t.stats.Dropped.Add(uint64(len(frames)))
	p.dropParked()
	for {
		select {
		case <-p.queue:
			p.t.stats.Dropped.Add(1)
		default:
			return
		}
	}
}

// dropParked drops (and counts) the frames parked on the peer.
func (p *peer) dropParked() {
	if parked := len(p.takeParked(nil)); parked > 0 {
		p.t.stats.Dropped.Add(uint64(parked))
		p.t.parked.Add(-int64(parked))
	}
}

// dial attempts a connection; success resets the failure streak.
func (p *peer) dial() net.Conn {
	c, err := net.DialTimeout("tcp", p.addr, p.t.cfg.DialTimeout)
	if err != nil {
		p.t.logf("realnet: dial %s (%s): %v", p.region, p.addr, err)
		p.fails++
		return nil
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	p.connMu.Lock()
	p.conn = c
	p.connMu.Unlock()
	if p.connected {
		p.t.stats.Reconnects.Add(1)
	}
	p.connected = true
	p.fails = 0
	return c
}

func (p *peer) currentConn() net.Conn {
	p.connMu.Lock()
	defer p.connMu.Unlock()
	return p.conn
}

// closeConn severs the live connection (writer, CutPeer, and Close use it).
func (p *peer) closeConn() {
	p.connMu.Lock()
	c := p.conn
	p.conn = nil
	p.connMu.Unlock()
	if c != nil {
		c.Close()
	}
}

// sleepBackoff waits the jittered exponential delay for the attempt-th
// consecutive failure (mirrors internal/core/retry.go: base doubling to the
// cap, jitter factor in [0.5, 1.5)). Returns false when the transport
// began to close mid-sleep.
func (p *peer) sleepBackoff(attempt int) bool {
	d := p.t.cfg.BackoffBase
	for i := 0; i < attempt && d < p.t.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > p.t.cfg.BackoffMax {
		d = p.t.cfg.BackoffMax
	}
	d = time.Duration(float64(d) * (0.5 + p.rng.Float64()))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-p.t.closing:
		return false
	}
}
