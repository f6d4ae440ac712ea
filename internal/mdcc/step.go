package mdcc

import (
	"slices"
	"sync"
	"time"

	"planet/internal/obs"
	"planet/internal/simnet"
	"planet/internal/txn"
	"planet/internal/vclock"
)

// outKind enumerates the effects a step can emit.
type outKind uint8

const (
	outSend       outKind = iota // one payload to one destination
	outStage                     // a master's payload, coalesced per destination (flush)
	outArm                       // arm a timer (a commit timeout, the lease tick): call fn after d
	outStop                      // stop a timer
	outProgress                  // sink.Progress(ev)
	outDecided                   // sink.Decided(ev.Txn, ev.Accept, err)
	outCall                      // fn(): a lease observer or a local waiter's wake-up
	outRegister                  // join the transport with the handler in msg
	outDeregister                // leave the transport
	outSpans                     // the step's spans: into the store in msg, else reported to to
)

// output is one effect of a step; which fields are set depends on kind.
// ev.Txn also names the transaction of an arm or a stop.
type output struct {
	kind  outKind
	to    simnet.Addr
	msg   any
	sink  ProgressSink
	ev    ProgressEvent
	err   error
	timer *stepTimer
	d     time.Duration
	fn    func()
}

// walOut is one WAL entry a step emitted. span, when positive, is one past
// the index in spans of the StageReplicaWAL span exec stamps with the
// append's own start and end.
type walOut struct {
	e    Entry
	span int
}

// outBuf is one step's outputs. Buffers are reused (outBufs), so a step
// allocates nothing for its output list.
type outBuf struct {
	outs  []output
	wal   []walOut
	spans []obs.Span // the spans an outSpans output hands on
	group []any      // flush's per-destination scratch
}

// next appends an output of kind and returns it for the caller to fill in.
// Slots past len are zero (perform clears the ones it used), so this writes
// only the fields the caller sets, not a whole output.
func (b *outBuf) next(kind outKind) *output {
	b.outs = slices.Grow(b.outs, 1)[:len(b.outs)+1]
	o := &b.outs[len(b.outs)-1]
	o.kind = kind
	return o
}

func (b *outBuf) add(o output) { *b.next(o.kind) = o }

func (b *outBuf) send(to simnet.Addr, m any) {
	o := b.next(outSend)
	o.to, o.msg = to, m
}

func (b *outBuf) stage(to simnet.Addr, m any) {
	o := b.next(outStage)
	o.to, o.msg = to, m
}

func (b *outBuf) progress(sink ProgressSink, ev ProgressEvent) {
	o := b.next(outProgress)
	o.sink, o.ev = sink, ev
}

// appendWAL emits a WAL entry; timed marks the last span emitted so far as
// the append's span.
func (b *outBuf) appendWAL(e Entry, timed bool) {
	w := walOut{e: e}
	if timed {
		w.span = len(b.spans)
	}
	b.wal = append(b.wal, w)
}

// span adds sp to the step's spans.
func (b *outBuf) span(sp obs.Span) { b.spans = append(b.spans, sp) }

// flushSpans emits the step's spans for transaction id's coordinator at
// to: into local, the store it records into, when that is non-nil, else as
// a spanReportMsg.
func (b *outBuf) flushSpans(id txn.ID, to simnet.Addr, local *obs.SpanStore) {
	o := b.next(outSpans)
	o.to, o.ev.Txn = to, id
	if local != nil {
		o.msg = local
	}
}

// perform carries out the outputs other than WAL entries, in emission
// order, as the actor at self on net, and empties the buffer.
func (b *outBuf) perform(net Transport, self simnet.Addr, clk vclock.Clock) {
	for i := range b.outs {
		switch o := &b.outs[i]; o.kind {
		case outSend:
			net.Send(self, o.to, o.msg)
		case outStage:
			if o.msg != nil {
				b.flush(net, self, i)
			}
		case outArm:
			o.timer.arm(clk, o.d, o.fn)
		case outStop:
			o.timer.stop()
		case outProgress:
			o.sink.Progress(o.ev)
		case outDecided:
			o.sink.Decided(o.ev.Txn, o.ev.Accept, o.err)
		case outCall:
			o.fn()
		case outRegister:
			net.Register(self, o.msg.(simnet.Handler))
		case outDeregister:
			net.Deregister(self)
		case outSpans:
			if st, ok := o.msg.(*obs.SpanStore); ok {
				st.AddBatch(b.spans)
			} else {
				net.Send(self, o.to, spanReportMsg{Txn: o.ev.Txn, Spans: slices.Clone(b.spans)})
			}
		}
	}
	clear(b.outs)
	clear(b.wal)
	clear(b.spans)
	b.outs, b.wal, b.spans = b.outs[:0], b.wal[:0], b.spans[:0]
}

// flush sends the group of staged payloads that starts at b.outs[first]
// as one wire message, so a step costs at most one wire message per
// destination.
func (b *outBuf) flush(net Transport, self simnet.Addr, first int) {
	to, msgs := b.gather(first)
	if len(msgs) == 1 {
		net.Send(self, to, msgs[0])
	} else {
		// The transport may hold the batch until delivery; msgs is the
		// buffer's scratch, reused by the next group.
		net.SendBatch(self, to, slices.Clone(msgs))
	}
	clear(msgs)
}

// gather collects every staged payload bound for b.outs[first]'s
// destination — in staged (deterministic) order, never map order — clears
// them from the buffer, so later members of the group are skipped, and
// folds them into their wire form (see coalesce).
func (b *outBuf) gather(first int) (simnet.Addr, []any) {
	to := b.outs[first].to
	group := b.group[:0]
	for j := first; j < len(b.outs); j++ {
		if o := &b.outs[j]; o.kind == outStage && o.msg != nil && o.to == to {
			group = append(group, o.msg)
			o.msg = nil
		}
	}
	b.group = group
	return to, coalesce(group)
}

// outBufs recycles output buffers; concurrent steps of one actor (two read
// loops of a live node) each take their own.
var outBufs = sync.Pool{New: func() any { return new(outBuf) }}

// query is a local read or a configuration change run inside step. What
// its closure captures escapes (step keeps parts of its inputs), so a hot
// read is a typed input with result fields instead (localRead).
type query func(now time.Time)

// stepTimer is a timer that steps arm and stop: a transaction's commit
// timeout, or a replica's lease tick (re-armed by every tick). The steps
// emit those calls as outputs, which two goroutines of a live node may
// perform in either order; mu orders them, and a stop performed first
// cancels the arm and every later one.
type stepTimer struct {
	mu      sync.Mutex
	t       vclock.Timer
	stopped bool
}

func (ct *stepTimer) arm(clk vclock.Clock, d time.Duration, f func()) {
	ct.mu.Lock()
	if !ct.stopped {
		ct.t = clk.AfterFunc(d, f)
	}
	ct.mu.Unlock()
}

func (ct *stepTimer) stop() {
	ct.mu.Lock()
	ct.stopped = true
	if ct.t != nil {
		ct.t.Stop()
	}
	ct.mu.Unlock()
}
