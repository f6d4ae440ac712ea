package vclock

import (
	"context"
	"sync"
	"time"
)

// Event is a one-shot broadcast ("happened / not yet"). Construct through
// Clock.NewEvent so the event knows which world it lives in: under a
// virtual clock, Fire moves every registered waiter onto its partition's
// run queue in the order they began waiting, so wake-ups are granted
// deterministically and the scheduler can never advance time through the
// handoff. Under the Real clock it degenerates to a closed channel. Fire
// is idempotent; Wait after Fire returns immediately. A waiter is either a
// goroutine parked in one of the Wait methods or a function registered with
// OnFire; both kinds share one arrival order.
//
// A virtual event is homed on the partition that created it: Fire must be
// called from code executing on that partition, and waiters parked on other
// partitions are woken through the deterministic merge layer at fire time +
// lookahead. (Firing from a foreign partition is tolerated — the wake is
// immediate rather than merge-ordered — but it is only deterministic at
// teardown, when ordering no longer matters.) A goroutine on a different
// partition must wait with WaitFrom / WaitTimeoutFrom, passing its own
// clock.
type Event struct {
	p       *Partition // home partition; nil under the Real clock
	mu      sync.Mutex // guards fired and waiters under the Real clock (virtual events use the world lock)
	ch      chan struct{}
	fired   bool
	waiters []*grant // in arrival order: parked and function waiters (virtual), function waiters only (Real)
}

// Fire releases all current and future waiters. Safe to call from any
// goroutine, any number of times.
func (e *Event) Fire() {
	if p := e.p; p != nil {
		w := p.w
		w.mu.Lock()
		if !e.fired {
			e.fired = true
			close(e.ch)
			p.fireEventLocked(e.waiters)
			e.waiters = nil
		}
		w.mu.Unlock()
		return
	}
	e.mu.Lock()
	var waiters []*grant
	if !e.fired {
		e.fired = true
		close(e.ch)
		waiters, e.waiters = e.waiters, nil
	}
	e.mu.Unlock()
	for _, g := range waiters {
		g.fn()
	}
}

// OnFire registers f to run once the event has fired, without a goroutine
// to wait for it. Under a virtual clock Fire readies f on the home
// partition's run queue exactly where it would ready a goroutine parked at
// this point, and f runs on the partition loop (it must not block through
// the clock); the caller must be executing on the home partition. Under the
// Real clock f runs on the goroutine that calls Fire. If the event has
// already fired, f runs at once on the caller's.
func (e *Event) OnFire(f func()) {
	if p := e.p; p != nil {
		w := p.w
		w.mu.Lock()
		if e.fired || w.stopped {
			w.mu.Unlock()
			f()
			return
		}
		e.waiters = append(e.waiters, &grant{p: p, fn: f})
		w.mu.Unlock()
		return
	}
	e.mu.Lock()
	if e.fired {
		e.mu.Unlock()
		f()
		return
	}
	e.waiters = append(e.waiters, &grant{fn: f})
	e.mu.Unlock()
}

// Done exposes the raw channel closed by Fire, for select-based waits in
// real-clock code (an HTTP handler racing a request context). A bare
// receive does not participate in run-queue accounting, so tracked
// goroutines under a virtual clock must use Wait/WaitTimeout/WaitCtx
// instead.
func (e *Event) Done() <-chan struct{} { return e.ch }

// Fired reports whether Fire has been called.
func (e *Event) Fired() bool {
	if p := e.p; p != nil {
		p.w.mu.Lock()
		defer p.w.mu.Unlock()
		return e.fired
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fired
}

// Wait blocks until the event fires. Under a virtual clock the caller's
// execution slot is released while blocked and regained in run-queue order
// after Fire, and the caller must be executing on the event's home
// partition (use WaitFrom elsewhere).
func (e *Event) Wait() { e.WaitFrom(nil) }

// WaitFrom is Wait for a caller executing on the partition of from (which
// may be the home partition or any other partition of the same World).
func (e *Event) WaitFrom(from Clock) {
	if p := e.p; p != nil {
		waiter := p
		if fp := partitionOf(from); fp != nil {
			waiter = fp
		}
		w := p.w
		w.mu.Lock()
		if e.fired || w.stopped {
			w.mu.Unlock()
			return
		}
		g := &grant{ch: make(chan struct{}), p: waiter}
		e.waiters = append(e.waiters, g)
		waiter.parkLocked(g)
		return
	}
	<-e.ch
}

// WaitTimeout blocks until the event fires or d elapses, reporting whether
// the event fired. Under a virtual clock the caller must be executing on
// the event's home partition (use WaitTimeoutFrom elsewhere).
func (e *Event) WaitTimeout(d time.Duration) bool { return e.WaitTimeoutFrom(nil, d) }

// WaitTimeoutFrom is WaitTimeout for a caller executing on the partition
// of from.
func (e *Event) WaitTimeoutFrom(from Clock, d time.Duration) bool {
	if p := e.p; p != nil {
		waiter := p
		if fp := partitionOf(from); fp != nil {
			waiter = fp
		}
		w := p.w
		w.mu.Lock()
		if e.fired {
			w.mu.Unlock()
			return true
		}
		if w.stopped {
			w.mu.Unlock()
			return false
		}
		g := waiter.timedGrantLocked(d)
		e.waiters = append(e.waiters, g)
		waiter.parkLocked(g)
		return g.cause == causeEvent
	}
	e.mu.Lock()
	fired := e.fired
	e.mu.Unlock()
	if fired {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-e.ch:
		return true
	case <-t.C:
		return false
	}
}

// WaitCtx blocks until the event fires or ctx is done. Returns nil when
// the event fired.
func (e *Event) WaitCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if ctx.Done() == nil {
		e.Wait()
		return nil
	}
	if p := e.p; p != nil {
		w := p.w
		w.mu.Lock()
		if e.fired || w.stopped {
			w.mu.Unlock()
			return nil
		}
		g := &grant{ch: make(chan struct{}), p: p}
		e.waiters = append(e.waiters, g)
		w.mu.Unlock()
		// Cancellation comes from outside the virtual world; the watcher
		// readies the waiter with a ctx wake.
		stop := context.AfterFunc(ctx, func() {
			w.mu.Lock()
			g.wakeLocked(causeCtx)
			w.mu.Unlock()
		})
		w.mu.Lock()
		p.parkLocked(g)
		stop()
		if g.cause == causeCtx {
			return ctx.Err()
		}
		return nil
	}
	select {
	case <-e.ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Group is a sync.WaitGroup replacement whose Wait participates in the
// clock's run-queue accounting, so a goroutine joining its workers does not
// pin virtual time while blocked. The Group is homed on the clock it was
// built with: under a partitioned World, workers spawned on other
// partitions with GoOn ship their completion back through the merge layer,
// so the counter's zero crossing — and every waiter's wake-up — happens at
// a deterministic virtual time on the home partition.
type Group struct {
	clk Clock
	mu  sync.Mutex
	n   int
	ev  *Event // non-nil while a waiter is parked; recreated per wait round
}

// NewGroup returns a Group bound to clk.
func NewGroup(clk Clock) *Group { return &Group{clk: Default(clk)} }

// Add increments the worker count by n (call before spawning, like
// sync.WaitGroup).
func (g *Group) Add(n int) {
	g.mu.Lock()
	g.n += n
	if g.n < 0 {
		g.mu.Unlock()
		panic("vclock: negative Group counter")
	}
	g.mu.Unlock()
}

// Done marks one worker finished, waking waiters when the count hits zero.
func (g *Group) Done() {
	g.mu.Lock()
	g.n--
	if g.n < 0 {
		g.mu.Unlock()
		panic("vclock: negative Group counter")
	}
	var ev *Event
	if g.n == 0 && g.ev != nil {
		ev = g.ev
		g.ev = nil
	}
	g.mu.Unlock()
	if ev != nil {
		ev.Fire()
	}
}

// Go runs f as one tracked worker on the Group's home clock: Add(1), spawn
// via the clock, Done on return.
func (g *Group) Go(f func()) {
	g.Add(1)
	g.clk.Go(func() {
		defer g.Done()
		f()
	})
}

// GoOn runs f as one tracked worker on clk's partition. The spawn ships
// from the Group's home partition through the merge layer (so it lands at
// a deterministic point in the worker partition's order), and the Done
// ships back the same way. The caller must be executing on the Group's
// home partition. When clk and the home clock are not distinct partitions
// of one World, GoOn is exactly Go on clk.
func (g *Group) GoOn(clk Clock, f func()) {
	clk = Default(clk)
	g.Add(1)
	body := func() {
		defer g.doneFrom(clk)
		f()
	}
	if !distinctPartitions(g.clk, clk) {
		clk.Go(body)
		return
	}
	ScheduleCross(g.clk, clk, 0, func() { clk.Go(body) })
}

// StartOn is GoOn for a worker that never blocks: f is posted on clk where
// GoOn would spawn a goroutine, so under a virtual clock it runs inline on
// clk's partition loop and must not block through the clock. The worker
// counts as running until it calls done, which f may hand to a callback
// (Event.OnFire) that outlives it; done must be called exactly once, from
// code executing on clk.
func (g *Group) StartOn(clk Clock, f func(done func())) {
	clk = Default(clk)
	g.Add(1)
	q := clk.NewQueue()
	body := func() { f(func() { g.doneFrom(clk) }) }
	if !distinctPartitions(g.clk, clk) {
		q.Post(body)
		return
	}
	ScheduleCross(g.clk, clk, 0, func() { q.Post(body) })
}

// doneFrom ships a Done from a worker's partition back to the home
// partition through the merge layer.
func (g *Group) doneFrom(clk Clock) {
	if !distinctPartitions(g.clk, clk) {
		g.Done()
		return
	}
	ScheduleCross(clk, g.clk, 0, g.Done)
}

// distinctPartitions reports whether a and b are two different partitions of
// one World — the case in which an effect from one on the other must cross
// the merge layer.
func distinctPartitions(a, b Clock) bool {
	pa, pb := partitionOf(a), partitionOf(b)
	return pa != nil && pb != nil && pa != pb && pa.w == pb.w
}

// Wait blocks until the worker count reaches zero. Must be called from the
// Group's home partition under a World.
func (g *Group) Wait() {
	for {
		g.mu.Lock()
		if g.n == 0 {
			g.mu.Unlock()
			return
		}
		if g.ev == nil {
			g.ev = g.clk.NewEvent()
		}
		ev := g.ev
		g.mu.Unlock()
		ev.Wait()
	}
}
