// Package vclock abstracts time for the PLANET stack. Two implementations
// share one interface: Real, a thin wrapper over package time with the
// current wall-clock behavior, and Partition, a deterministic discrete-event
// scheduler that advances a simulated clock straight to the next pending
// deadline the moment every participant is blocked. Partitions live in a
// World; a World of one partition (NewVirtual) is the serialized virtual
// clock, and further partitions add only the lookahead and merge rules
// stated on World.
//
// Under the virtual clock the entire evaluation runs at CPU speed — a
// WAN-shaped experiment that used to spend 85% of its wall time asleep in
// scaled timers finishes as fast as the hardware can execute its handlers,
// and every seeded run is bit-for-bit reproducible regardless of host load.
//
// # Serialized execution
//
// Determinism comes from two rules, FoundationDB-style. First, a partition
// may only advance time while none of its tracked goroutines is runnable.
// Second — and this is what makes same-seed runs bit-identical rather than
// merely fast — at most one tracked goroutine per partition executes at a
// time: every blocked goroutine waits for the partition's single execution
// slot, and the partition grants the slot in strict FIFO order of when each
// waiter became runnable. Since wake-ups (timer fires, event broadcasts,
// spawns, queued tickets) are themselves produced by serialized execution,
// the grant order is a pure function of the initial state; the OS scheduler
// never gets a vote. Timers due at the same instant fire in the order they
// were created.
//
//   - timer callbacks run one at a time on the partition's goroutine;
//   - Sleep and Event waits release the caller's slot and re-enter the run
//     queue when their wake condition fires;
//   - Go enqueues the new goroutine at the point of the call, so spawns
//     are ordered deterministically;
//   - Ticket reserves an execution slot at creation (fixing its order) for
//     work a plain goroutine will perform later — the mechanism behind
//     in-order callback dispatch;
//   - AddWork/WorkDone pin the partition for untracked goroutines poking it
//     from outside (tests, real-clock bridges).
//
// The Real clock implements the same interface with every scheduling
// operation a no-op, so production code paths (planetd, the HTTP gateway)
// pay nothing.
package vclock

import (
	"context"
	"time"
)

// Clock is the time source threaded through every layer that sleeps,
// schedules, or timestamps on the transaction hot path.
type Clock interface {
	// Now returns the current (real or virtual) time.
	Now() time.Time
	// Since returns Now().Sub(t).
	Since(t time.Time) time.Duration
	// Until returns t.Sub(Now()).
	Until(t time.Time) time.Duration
	// Sleep blocks the caller for d. Under the virtual clock the caller's
	// activity token is released for the duration, letting time jump.
	Sleep(d time.Duration)
	// SleepCtx sleeps like Sleep but returns early with ctx's error when
	// ctx is done first.
	SleepCtx(ctx context.Context, d time.Duration) error
	// AfterFunc schedules f to run after d. f runs on a scheduler (or
	// timer) goroutine holding an activity token.
	AfterFunc(d time.Duration, f func()) Timer
	// NewTimer returns a channel-based timer. Receiving from C after the
	// timer fires transfers an activity token to the receiver.
	NewTimer(d time.Duration) Timer
	// NewEvent returns a one-shot broadcast event with token handoff.
	NewEvent() *Event
	// Go runs f on a new goroutine tracked by the scheduler; the spawn is
	// ordered at the point of the call.
	Go(f func())
	// Ticket reserves an execution slot in the run queue, fixing the order
	// of work an untracked goroutine will run later via Ticket.Run. Under
	// the Real clock, Run simply invokes its callback.
	Ticket() Ticket
	// AddWork declares n units of pending work performed by an untracked
	// goroutine; each must be balanced by one WorkDone. While pending, the
	// virtual world neither advances time nor grants execution slots.
	AddWork(n int)
	// WorkDone completes one unit declared by AddWork.
	WorkDone()
}

// Ticket is a reserved execution slot. Run blocks until the scheduler
// grants the slot, executes f (which must not block through the clock),
// and releases the slot.
type Ticket interface {
	Run(f func())
}

// Timer is the subset of *time.Timer the stack needs, satisfiable by the
// virtual scheduler. The Stop/Reset contract matches package time, with one
// deliberate strengthening: the virtual Stop drains an unconsumed fire
// from C, so `if !t.Stop() { ... }` without a drain idiom is safe.
type Timer interface {
	// C returns the firing channel (nil for AfterFunc timers).
	C() <-chan time.Time
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
	// Reset re-arms the timer for d, reporting whether it was pending.
	Reset(d time.Duration) bool
}

// Real is the production clock: package time, verbatim. The zero value is
// ready to use and all token operations are no-ops.
type Real struct{}

// System is the shared Real clock instance.
var System = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Until implements Clock.
func (Real) Until(t time.Time) time.Duration { return time.Until(t) }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// SleepCtx implements Clock.
func (Real) SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// realTimer adapts *time.Timer to Timer.
type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time        { return r.t.C }
func (r realTimer) Stop() bool                 { return r.t.Stop() }
func (r realTimer) Reset(d time.Duration) bool { return r.t.Reset(d) }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{t: time.AfterFunc(d, f)}
}

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{t: time.NewTimer(d)} }

// NewEvent implements Clock.
func (Real) NewEvent() *Event { return &Event{ch: make(chan struct{})} }

// Go implements Clock.
func (Real) Go(f func()) { go f() }

// realTicket is the Real clock's Ticket: no reservation, Run is immediate.
type realTicket struct{}

// Run implements Ticket.
func (realTicket) Run(f func()) { f() }

// Ticket implements Clock.
func (Real) Ticket() Ticket { return realTicket{} }

// AddWork implements Clock (no-op).
func (Real) AddWork(int) {}

// WorkDone implements Clock (no-op).
func (Real) WorkDone() {}

// Default returns clk, or the shared Real clock when clk is nil, so config
// structs can leave the field unset for current behavior.
func Default(clk Clock) Clock {
	if clk == nil {
		return System
	}
	return clk
}
