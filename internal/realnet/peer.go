package realnet

import (
	"math/rand"
	"net"
	"sync"
	"time"

	"planet/internal/simnet"
)

// dropAfter is the consecutive-failure count (dials and writes) at which a
// writer abandons the batch in hand, with everything in the outbox behind
// it, instead of retrying: the protocol is built on loss, and a long outage
// must not replay stale traffic on reconnect. Until a dial or write
// succeeds again, every later batch gets one dial attempt.
const dropAfter = 3

// peer manages the outbound connection to one remote region: a bounded
// outbox kept in send order, a writer goroutine that dials lazily and sends
// what the outbox holds with one write, and reconnect with jittered
// exponential backoff mirroring internal/core/retry.go (base doubling per
// attempt to a cap, jitter factor in [0.5, 1.5)).
type peer struct {
	t      *Transport
	region simnet.Region // remote region
	addr   string        // TCP address

	// mu guards outbox, timer and inWindow. A regular frame joins the
	// outbox and wakes the writer; a deferrable one joins it without a
	// wake-up, and the first outside a deferral window opens one: timer is
	// armed once for it, and when it fires, deferBound later, the window
	// closes and wakes the writer if frames are waiting. The writer taking
	// frames leaves the window open.
	mu       sync.Mutex
	outbox   [][]byte // encoded frames awaiting write, in send order
	timer    *time.Timer
	inWindow bool
	wake     chan struct{} // capacity 1: the outbox is due

	// connMu guards conn so CutPeer/Close can sever a live connection from
	// outside the writer goroutine.
	connMu sync.Mutex
	conn   net.Conn

	// Writer-goroutine-local reconnect bookkeeping.
	fails     int
	connected bool // a dial has succeeded at least once
	rng       *rand.Rand
	batch     [][]byte    // scratch for take
	iov       net.Buffers // scratch for vectored writes
}

// push appends a frame to the outbox without ever blocking the sender: a
// full outbox (peer slower than the workload, or down with frames piling
// up) or a closed transport drops the frame, exactly as a lossy WAN would.
// A deferrable frame waits for the writer's next send to this peer, at
// most deferBound.
func (p *peer) push(frame []byte, deferrable bool) {
	p.mu.Lock()
	if len(p.outbox) >= p.t.cfg.QueueDepth || p.t.isDone() {
		p.mu.Unlock()
		p.t.stats.Dropped.Add(1)
		return
	}
	p.outbox = append(p.outbox, frame)
	p.t.unsent.Add(1)
	if deferrable && !p.inWindow {
		p.inWindow = true
		if p.timer == nil {
			p.timer = time.AfterFunc(deferBound, p.closeWindow)
		} else {
			p.timer.Reset(deferBound)
		}
	}
	p.mu.Unlock()
	if !deferrable {
		p.kick()
	}
}

// closeWindow ends a deferral window: frames still in the outbox are due.
func (p *peer) closeWindow() {
	p.mu.Lock()
	p.inWindow = false
	due := len(p.outbox) > 0
	p.mu.Unlock()
	if due {
		p.kick()
	}
}

// kick wakes the writer to send what the outbox holds.
func (p *peer) kick() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// take moves the oldest frames of the outbox, up to maxCoalesce, into the
// writer's scratch and reports whether frames remain. The slice is valid
// until the next take.
func (p *peer) take() (frames [][]byte, more bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := min(len(p.outbox), maxCoalesce)
	frames = append(p.batch[:0], p.outbox[:n]...)
	rest := copy(p.outbox, p.outbox[n:])
	clear(p.outbox[rest:])
	p.outbox = p.outbox[:rest]
	p.batch = frames
	return frames, rest > 0
}

// dropOutbox drops (and counts) the frames in the outbox.
func (p *peer) dropOutbox() {
	p.mu.Lock()
	n := len(p.outbox)
	clear(p.outbox)
	p.outbox = p.outbox[:0]
	p.mu.Unlock()
	if n > 0 {
		p.t.stats.Dropped.Add(uint64(n))
		p.t.unsent.Add(-int64(n))
	}
}

// run is the writer loop: on each wake-up, write the oldest frames of the
// outbox, retrying with backoff through transient failures; a batch cut at
// maxCoalesce leaves the rest due. Frames left when the transport is done
// are dropped.
func (p *peer) run() {
	defer p.t.wg.Done()
	defer p.dropOutbox()
	for {
		select {
		case <-p.wake:
		case <-p.t.done:
			return
		}
		frames, more := p.take()
		if len(frames) > 0 {
			p.write(frames)
			p.t.unsent.Add(-int64(len(frames)))
		}
		if more {
			p.kick()
		}
	}
}

// write delivers a batch of frames with one socket write, dialing and
// retrying with jittered exponential backoff. After a failed write, frames
// the socket took whole are not sent again (delivery stays at-most-once);
// the rest are retried on a fresh connection. The batch is abandoned
// (dropped, counted) after dropAfter consecutive failures, when the link is
// administratively cut, or when Close finds no live connection; the outbox
// is emptied along with it so a long outage doesn't replay stale protocol
// traffic on reconnect.
func (p *peer) write(frames [][]byte) {
	for attempt := 0; ; attempt++ {
		if p.t.isDone() {
			p.t.stats.Dropped.Add(uint64(len(frames)))
			return
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

// abandon drops the frames in hand and everything in the outbox behind
// them.
func (p *peer) abandon(frames [][]byte) {
	p.t.stats.Dropped.Add(uint64(len(frames)))
	p.dropOutbox()
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
