// Package vclock abstracts time for the PLANET stack. Two implementations
// share one interface: Real, a thin wrapper over package time with the
// current wall-clock behavior, and Virtual, a deterministic discrete-event
// scheduler that advances a simulated clock straight to the next pending
// deadline the moment every participant is blocked. A simulated cluster
// runs on one Virtual, so each run has a single global event order.
//
// Under the virtual clock the entire evaluation runs at CPU speed — a
// WAN-shaped experiment that used to spend 85% of its wall time asleep in
// scaled timers finishes as fast as the hardware can execute its handlers,
// and every seeded run is bit-for-bit reproducible regardless of host load.
// The parallelism that pays is across clocks: independent experiment arms,
// each on its own Virtual, run on separate cores.
//
// # Serialized execution
//
// Determinism comes from two rules, FoundationDB-style. First, the clock
// may only advance time while none of its tracked goroutines is runnable.
// Second — and this is what makes same-seed runs bit-identical rather than
// merely fast — at most one tracked goroutine executes at a time: every
// blocked goroutine waits for the clock's single execution slot, and the
// clock grants the slot in strict FIFO order of when each waiter became
// runnable. Since wake-ups (timer fires, event broadcasts, spawns, posted
// callbacks) are themselves produced by serialized execution, the grant
// order is a pure function of the initial state; the OS scheduler never
// gets a vote. Timers due at the same instant fire in the order they were
// created.
//
//   - timer callbacks run one at a time on the scheduler's goroutine, each
//     where its timer is popped: timers pop only once the run queue is dry,
//     and whatever a callback enqueues runs before the next timer fires;
//   - Sleep and Event waits release the caller's slot and re-enter the run
//     queue when their wake condition fires;
//   - Go enqueues the new goroutine at the point of the call, so spawns
//     are ordered deterministically;
//   - Queue.Post and Event.OnFire enqueue a function the same way, and the
//     scheduler's goroutine runs it inline when its slot comes up — no
//     goroutine per callback, which is how a transaction's staged callbacks
//     and an open-loop arrival's body run;
//   - AddWork/WorkDone pin the clock for untracked goroutines poking it
//     from outside (tests, real-clock bridges).
//
// Whatever runs on the scheduler's goroutine (timer callbacks, posted
// functions, function waiters) must not block through the clock.
//
// The Real clock implements the same interface with every scheduling
// operation a no-op, so production code paths (planetd, the HTTP gateway)
// pay nothing; its Queue is a slice drained in order by a goroutine that
// exists only while the queue is non-empty.
package vclock

import (
	"context"
	"sync"
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
	// NewQueue returns a serial callback queue for one owner (a transaction
	// handle, a worker body).
	NewQueue() Queue
	// AddWork declares n units of pending work performed by an untracked
	// goroutine; each must be balanced by one WorkDone. While pending, the
	// virtual world neither advances time nor grants execution slots.
	AddWork(n int)
	// WorkDone completes one unit declared by AddWork.
	WorkDone()
}

// Queue runs the functions posted to it one at a time, in post order. Under
// a virtual clock a post takes its place in the clock's run queue at the
// point of the call — so the order across all queues of a clock is the
// deterministic call order — and the function runs on the scheduler's
// goroutine, where it must not block through the clock. Under the Real clock
// each queue drains on its own goroutine, so a slow function delays only the
// functions posted behind it on the same queue.
type Queue interface {
	Post(f func())
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

// realQueue is the Real clock's Queue. The drainer goroutine exits when it
// finds the queue empty, so an idle queue costs no goroutine.
type realQueue struct {
	mu       sync.Mutex
	fns      []func()
	draining bool
}

// NewQueue implements Clock.
func (Real) NewQueue() Queue { return &realQueue{} }

// Post implements Queue.
func (q *realQueue) Post(f func()) {
	q.mu.Lock()
	q.fns = append(q.fns, f)
	start := !q.draining
	q.draining = true
	q.mu.Unlock()
	if start {
		go q.drain()
	}
}

// drain runs posted functions in order until none is left.
func (q *realQueue) drain() {
	for {
		q.mu.Lock()
		fns := q.fns
		q.fns = nil
		if len(fns) == 0 {
			q.draining = false
			q.mu.Unlock()
			return
		}
		q.mu.Unlock()
		for _, f := range fns {
			f()
		}
	}
}

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
