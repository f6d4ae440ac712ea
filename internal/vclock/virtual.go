package vclock

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// epoch is the fixed origin of every virtual clock. A constant origin (and
// never the host's wall clock) is what makes timestamps recorded during a
// run — WAL entries, outcome brackets, decay windows — identical across
// same-seed runs on any machine.
var epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// Wake causes for a parked grant, recorded before the grant is readied so
// the woken goroutine can tell why it resumed.
const (
	causeNone = iota
	causeTimer
	causeEvent
	causeCtx
	causeShutdown
)

// grant is a parked goroutine's claim on the run queue: it waits on ch for
// its execution slot once something wakes it.
type grant struct {
	ch    chan struct{} // closed when granted
	timer *wtimer       // companion timeout timer, descheduled on other wakes
	cause int           // why the grant was woken; causeNone = still parked
}

// runSlot is one run-queue entry: a function to run inline on the scheduler
// loop (a Post, or a fired Event's OnFire function), or the channel of a
// parked goroutine, closed to hand it the execution slot.
type runSlot struct {
	fn func()
	ch chan struct{}
}

// Virtual is the deterministic discrete-event scheduler of the package
// comment, and the only virtual Clock implementation. At most one tracked
// goroutine runs at a time: the clock hands its single execution slot to
// waiters in strict FIFO order of when they became runnable, and advances
// time only when the run queue is empty and nothing is running, jumping
// straight to the earliest pending deadline, so a run spends zero wall time
// asleep. One simulated cluster runs on one Virtual, which gives the whole
// run a single global event order.
type Virtual struct {
	// clock mirrors now for Now, which every send, vote and callback calls:
	// the scheduler loop is now's only writer and stores both under mu, so
	// readers need no lock.
	clock atomic.Int64

	mu      sync.Mutex
	cond    *sync.Cond // wakes the scheduler loop
	stopped bool
	now     time.Duration
	running int // granted execution slots (1 in steady state; AddWork pins add)
	// The run queue is ready[head:]. Taking a slot advances head, and the
	// slice rewinds to its start whenever the queue drains (time advances
	// only then), so steady-state appends reuse one backing array.
	ready  []runSlot
	head   int
	timers timerHeap
	free   []*wtimer // spent Schedule timers, for reuse
	seq    uint64    // timer arm order (same-instant ties)

	pace *pacer // non-nil for a clock built by NewPaced
}

// pacer holds a paced clock's link to wall time: virtual time since the
// epoch never runs ahead of wall time since start.
type pacer struct {
	start time.Time   // wall instant of the clock's epoch
	wake  *time.Timer // signals the loop when the next timer falls due
}

// NewVirtual returns a running virtual clock whose time starts at the fixed
// epoch. The constructing goroutine holds the execution slot and must block
// only through clock primitives (Sleep, Event waits, Group.Wait). Timer
// callbacks, posted functions and function waiters run one at a time on the
// scheduler loop and must not block through the clock either — they may
// freely create timers, fire events, spawn via Go, and post. Shutdown stops
// the clock.
func NewVirtual() *Virtual {
	v := &Virtual{running: 1}
	v.cond = sync.NewCond(&v.mu)
	go v.run()
	return v
}

// NewPaced returns a virtual clock like NewVirtual's, with the same loop,
// run queue and (when, seq) order, whose loop waits for wall time before it
// pops a timer: a timer due at virtual instant when fires no earlier than
// when has passed on the wall since NewPaced, or earlier only if an outsider
// posts or pins first. Virtual and wall time then run 1:1, which is what a
// client waiting in wall time (an HTTP request, a person at a terminal)
// needs. Outsiders enter through Post, Go or AddWork; entering an idle
// clock first raises its time to the wall-equivalent instant, capped at the
// earliest pending timer, so their timers are armed from the present and
// not from the last event. The constructing goroutine holds the execution
// slot, as with NewVirtual.
func NewPaced() *Virtual {
	v := NewVirtual()
	v.pace = &pacer{start: time.Now()}
	v.pace.wake = time.AfterFunc(time.Hour, v.signal)
	v.pace.wake.Stop()
	return v
}

// signal wakes the scheduler loop.
func (v *Virtual) signal() {
	v.mu.Lock()
	v.cond.Signal()
	v.mu.Unlock()
}

// idleLocked reports whether nothing runs or waits to run: the clock would
// next pop a timer. Caller holds mu.
func (v *Virtual) idleLocked() bool { return v.running == 0 && v.head == len(v.ready) }

// wallNowLocked is a paced clock's present: its virtual time, or when idle
// the wall time since start, capped at the earliest pending timer. Caller
// holds mu.
func (v *Virtual) wallNowLocked() time.Duration {
	if !v.idleLocked() || v.stopped {
		return v.now
	}
	w := time.Since(v.pace.start)
	if len(v.timers) > 0 && v.timers[0].when < w {
		w = v.timers[0].when
	}
	return max(w, v.now)
}

// enterLocked raises an idle paced clock's time to the present before an
// outsider's work joins it. Caller holds mu.
func (v *Virtual) enterLocked() {
	if now := v.wallNowLocked(); now > v.now {
		v.now = now
		v.clock.Store(int64(now))
	}
}

// awaitPaceLocked makes a paced loop wait, before popping the earliest
// timer, until wall time reaches the timer's instant. It reports whether it
// waited; the loop then re-checks everything, since an outsider may have
// posted or pinned meanwhile. Caller holds mu.
func (v *Virtual) awaitPaceLocked() bool {
	d := v.timers[0].when - time.Since(v.pace.start)
	if d <= 0 {
		return false
	}
	v.pace.wake.Reset(d)
	v.cond.Wait()
	return true
}

// Shutdown stops the scheduler loop, discards pending callbacks (timers, and
// functions still waiting on the run queue), and wakes parked sleepers (their
// Sleep returns early, WaitTimeout reports false). Call once the simulated
// world is drained.
func (v *Virtual) Shutdown() {
	v.mu.Lock()
	v.stopped = true
	if v.pace != nil {
		v.pace.wake.Stop()
	}
	v.cond.Signal()
	v.mu.Unlock()
}

// run is the scheduler loop: grant ready work, else pop the earliest timer.
// A popped timer's body runs right there: the run queue is empty at a pop,
// so that is the slot an entry appended for it would have been given next.
func (v *Virtual) run() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for {
		switch {
		case v.stopped:
			v.drainLocked()
			return
		case v.running > 0:
			v.cond.Wait()
		case len(v.ready) > 0:
			s := v.ready[v.head]
			v.ready[v.head] = runSlot{}
			v.head++
			if v.head == len(v.ready) {
				v.ready, v.head = v.ready[:0], 0
			}
			if s.fn != nil {
				v.callLocked(s.fn)
			} else {
				v.running++
				close(s.ch)
			}
		case len(v.timers) > 0:
			if v.pace != nil && v.awaitPaceLocked() {
				continue
			}
			t := v.timers.pop()
			if t.when > v.now {
				v.now = t.when
				v.clock.Store(int64(t.when))
			}
			if fn := t.fn; fn != nil {
				if t.recycle {
					t.fn = nil
					v.free = append(v.free, t)
				}
				v.callLocked(fn)
			} else {
				v.fireLocked(t)
			}
		default:
			v.cond.Wait()
		}
	}
}

// callLocked runs fn on the scheduler loop, holding the execution slot for
// the call. Caller holds mu, released while fn runs.
func (v *Virtual) callLocked(fn func()) {
	v.running++
	v.mu.Unlock()
	fn()
	v.mu.Lock()
	v.running--
}

// drainLocked wakes everything at shutdown. Caller holds mu.
func (v *Virtual) drainLocked() {
	for _, s := range v.ready[v.head:] {
		if s.ch != nil {
			close(s.ch)
		}
	}
	v.ready, v.head = nil, 0
	for _, t := range v.timers {
		if t.g != nil && t.g.cause == causeNone {
			t.g.cause = causeShutdown
			close(t.g.ch)
		}
	}
	v.timers = nil
}

// readyLocked appends s to the run queue. Caller holds mu.
func (v *Virtual) readyLocked(s runSlot) {
	v.ready = append(v.ready, s)
	v.cond.Signal()
}

// parkLocked releases the caller's execution slot and blocks until g is
// granted. Caller holds mu and owns the slot; returns without the lock.
func (v *Virtual) parkLocked(g *grant) {
	v.running--
	if v.running < 0 {
		panic("vclock: park without an execution slot (untracked goroutine blocked through the clock)")
	}
	v.cond.Signal()
	v.mu.Unlock()
	<-g.ch
}

// exitLocked gives the execution slot back without a wake-up to wait for.
// Caller holds mu.
func (v *Virtual) exitLocked() {
	v.running--
	if v.running < 0 {
		panic("vclock: unbalanced execution-slot release")
	}
	v.cond.Signal()
}

// wakeLocked readies a parked goroutine's grant with the given cause,
// descheduling its companion timer. A no-op when the grant was already
// woken. Caller holds mu.
func (v *Virtual) wakeLocked(g *grant, cause int) {
	if g.cause != causeNone {
		return
	}
	g.cause = cause
	if g.timer != nil {
		v.timers.remove(g.timer)
	}
	if v.stopped {
		// The scheduler loop has exited; release the waiter directly instead
		// of queueing it on a dead run queue.
		close(g.ch)
		return
	}
	v.readyLocked(runSlot{ch: g.ch})
}

// armLocked schedules t firing at now+d, after every timer already due at
// that instant. Caller holds mu.
func (v *Virtual) armLocked(t *wtimer, d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.when, t.seq = v.now+d, v.seq
	v.seq++
	v.timers.push(t)
	v.cond.Signal()
}

// newTimerLocked registers a timer firing at now+d. Caller holds mu.
func (v *Virtual) newTimerLocked(d time.Duration) *wtimer {
	t := &wtimer{v: v}
	v.armLocked(t, d)
	return t
}

// timedGrantLocked returns a grant for the caller to park on, with a
// companion timer that wakes it after d unless something else does first.
// Caller holds mu.
func (v *Virtual) timedGrantLocked(d time.Duration) *grant {
	g := &grant{ch: make(chan struct{})}
	g.timer = v.newTimerLocked(d)
	g.timer.g = g
	return g
}

// sleepGrantLocked returns the grant a sleep of d parks on: timed, or for
// d <= 0 a yield to the back of the run queue. Caller holds mu.
func (v *Virtual) sleepGrantLocked(d time.Duration) *grant {
	if d > 0 {
		return v.timedGrantLocked(d)
	}
	// A yield is woken the moment it is queued. Recording that keeps a
	// context cancelled before the slot comes up from readying it again.
	g := &grant{ch: make(chan struct{}), cause: causeTimer}
	v.readyLocked(runSlot{ch: g.ch})
	return g
}

// Schedule runs f on clk after d, as clk.AfterFunc(d, f) does, but hands
// back no timer: nothing can stop or reset the call, so once a Virtual has
// popped the timer it reuses it for a later Schedule. A steady stream of
// fire-and-forget callbacks — simnet's deliveries — allocates no timer.
func Schedule(clk Clock, d time.Duration, f func()) {
	v, ok := clk.(*Virtual)
	if !ok {
		Default(clk).AfterFunc(d, f)
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.stopped {
		go f()
		return
	}
	var t *wtimer
	if n := len(v.free); n > 0 {
		t, v.free[n-1] = v.free[n-1], nil
		v.free = v.free[:n-1]
	} else {
		t = &wtimer{v: v, recycle: true}
	}
	t.fn = f
	v.armLocked(t, d)
}

// Now implements Clock. On an idle paced clock it reads the present as an
// entering outsider would see it.
func (v *Virtual) Now() time.Time {
	if v.pace != nil {
		v.mu.Lock()
		defer v.mu.Unlock()
		return epoch.Add(v.wallNowLocked())
	}
	return epoch.Add(time.Duration(v.clock.Load()))
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Until implements Clock.
func (v *Virtual) Until(t time.Time) time.Duration { return t.Sub(v.Now()) }

// Sleep implements Clock: the caller's slot is released for the duration,
// so the clock may advance straight to the wake-up (or any earlier work)
// with zero wall-clock cost. Sleep(0) yields: the caller goes to the back of
// the run queue.
func (v *Virtual) Sleep(d time.Duration) {
	v.mu.Lock()
	if v.stopped {
		v.mu.Unlock()
		return
	}
	v.parkLocked(v.sleepGrantLocked(d))
}

// SleepCtx implements Clock. Cancellation comes from outside the virtual
// world and wakes the sleeper immediately (in real time); deterministic runs
// use contexts that never fire.
func (v *Virtual) SleepCtx(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if ctx.Done() == nil {
		v.Sleep(d)
		return nil
	}
	v.mu.Lock()
	if v.stopped {
		v.mu.Unlock()
		return ctx.Err()
	}
	g := v.sleepGrantLocked(d)
	v.mu.Unlock()
	stop := context.AfterFunc(ctx, func() {
		v.mu.Lock()
		v.wakeLocked(g, causeCtx)
		v.mu.Unlock()
	})
	v.mu.Lock()
	v.parkLocked(g)
	stop()
	if g.cause == causeCtx {
		return ctx.Err()
	}
	return nil
}

// AfterFunc implements Clock: f runs on the scheduler loop at the virtual
// deadline and must not block through the clock.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	v.mu.Lock()
	if v.stopped {
		v.mu.Unlock()
		go f()
		return &wtimer{v: v}
	}
	t := v.newTimerLocked(d)
	t.fn = f
	v.mu.Unlock()
	return t
}

// NewTimer implements Clock. The returned timer delivers the fire into a
// buffered channel with no run-queue participation, so a tracked goroutine
// must not bare-receive from C (it would hold the execution slot and wedge
// the clock); C is for select loops in real-clock-domain code that happen to
// hold a virtual clock. Tracked code should use Sleep or Events.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.stopped {
		t := &wtimer{v: v, ch: make(chan time.Time, 1)}
		t.ch <- epoch.Add(v.now)
		return t
	}
	t := v.newTimerLocked(d)
	t.ch = make(chan time.Time, 1)
	return t
}

// NewEvent implements Clock. See Event.
func (v *Virtual) NewEvent() *Event {
	return &Event{v: v, ch: make(chan struct{})}
}

// Go implements Clock: the spawn is ordered at the point of the call on the
// run queue.
func (v *Virtual) Go(f func()) {
	v.mu.Lock()
	if v.stopped {
		v.mu.Unlock()
		go f()
		return
	}
	if v.pace != nil {
		v.enterLocked()
	}
	ch := make(chan struct{})
	v.readyLocked(runSlot{ch: ch})
	v.mu.Unlock()
	go func() {
		<-ch
		f()
		v.mu.Lock()
		v.exitLocked()
		v.mu.Unlock()
	}()
}

// NewQueue implements Clock. The run queue is already serial, so every
// owner's queue is the clock itself.
func (v *Virtual) NewQueue() Queue { return v }

// Post implements Queue: f takes a run-queue slot now and runs on the
// scheduler loop when the slot comes up.
func (v *Virtual) Post(f func()) {
	v.mu.Lock()
	if v.stopped {
		v.mu.Unlock()
		go f()
		return
	}
	if v.pace != nil {
		v.enterLocked()
	}
	v.readyLocked(runSlot{fn: f})
	v.mu.Unlock()
}

// AddWork implements Clock: the n units pin the clock at its current now
// until balanced by WorkDone. For untracked goroutines poking the world from
// outside; a pinned goroutine may block through the clock, like a tracked
// one.
func (v *Virtual) AddWork(n int) {
	if n <= 0 {
		return
	}
	v.mu.Lock()
	if v.pace != nil {
		v.enterLocked()
	}
	v.running += n
	v.mu.Unlock()
}

// WorkDone implements Clock.
func (v *Virtual) WorkDone() {
	v.mu.Lock()
	v.exitLocked()
	v.mu.Unlock()
}

// wtimer is one entry of the clock's timer heap: a timer with a body, a
// channel timer, or the companion timer of a parked grant.
type wtimer struct {
	v       *Virtual
	when    time.Duration
	seq     uint64 // arm order, the tie-break among timers due at one instant
	index   int    // slot in the timer heap while queued
	fn      func() // body, run by the scheduler loop where the timer is popped
	ch      chan time.Time
	g       *grant // parked grant this timer times out (timedGrantLocked)
	recycle bool   // a Schedule timer: nothing else holds it once popped
}

// fireLocked delivers a timer that has no body: a wake-up or a channel send.
// Caller holds mu; t was just popped from the heap.
func (v *Virtual) fireLocked(t *wtimer) {
	switch {
	case t.g != nil:
		v.wakeLocked(t.g, causeTimer)
	case t.ch != nil:
		select {
		case t.ch <- epoch.Add(t.when):
		default: // unconsumed previous fire; drop
		}
	}
}

// C implements Timer.
func (t *wtimer) C() <-chan time.Time { return t.ch }

// Stop implements Timer.
func (t *wtimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	return t.stopLocked()
}

// stopLocked is Stop under mu.
func (t *wtimer) stopLocked() bool {
	if t.v.timers.remove(t) {
		return true
	}
	if t.ch != nil {
		select {
		case <-t.ch: // drain an unconsumed fire
		default:
		}
	}
	return false
}

// Reset implements Timer.
func (t *wtimer) Reset(d time.Duration) bool {
	v := t.v
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.stopped {
		return false
	}
	wasPending := t.stopLocked()
	v.armLocked(t, d)
	return wasPending
}
