package vclock

import (
	"context"
	"sync"
	"time"
)

// Event is a one-shot broadcast ("happened / not yet"). Construct through
// Clock.NewEvent so the event knows which clock it lives on: under a virtual
// clock, Fire moves every registered waiter onto the run queue in the order
// they began waiting, so wake-ups are granted deterministically and the
// scheduler can never advance time through the handoff. Under the Real clock
// it degenerates to a closed channel. Fire is idempotent; Wait after Fire
// returns immediately. A waiter is either a goroutine parked in one of the
// Wait methods or a function registered with OnFire; both kinds share one
// arrival order.
type Event struct {
	v       *Virtual   // nil under the Real clock
	mu      sync.Mutex // guards fired and waiters under the Real clock (virtual events use the clock's lock)
	ch      chan struct{}
	fired   bool
	waiters []waiter // in arrival order: parked and function waiters (virtual), function waiters only (Real)
}

// waiter is one Event waiter: the grant of a goroutine parked in a Wait
// method, or a function registered with OnFire (g nil). Only Fire wakes a
// function waiter, so it needs no grant of its own.
type waiter struct {
	g  *grant
	fn func()
}

// Fire releases all current and future waiters. Safe to call from any
// goroutine, any number of times.
func (e *Event) Fire() {
	if v := e.v; v != nil {
		v.mu.Lock()
		if !e.fired {
			e.fired = true
			close(e.ch)
			for _, w := range e.waiters {
				switch {
				case w.g != nil:
					v.wakeLocked(w.g, causeEvent)
				case v.stopped:
					// The scheduler loop has exited; run the function
					// instead of queueing it on a dead run queue.
					go w.fn()
				default:
					v.readyLocked(runSlot{fn: w.fn})
				}
			}
			e.waiters = nil
		}
		v.mu.Unlock()
		return
	}
	e.mu.Lock()
	var waiters []waiter
	if !e.fired {
		e.fired = true
		close(e.ch)
		waiters, e.waiters = e.waiters, nil
	}
	e.mu.Unlock()
	for _, w := range waiters {
		w.fn()
	}
}

// OnFire registers f to run once the event has fired, without a goroutine
// to wait for it. Under a virtual clock Fire readies f on the run queue
// exactly where it would ready a goroutine parked at this point, and f runs
// on the scheduler loop (it must not block through the clock). Under the
// Real clock f runs on the goroutine that calls Fire. If the event has
// already fired, f runs at once on the caller's.
func (e *Event) OnFire(f func()) {
	if v := e.v; v != nil {
		v.mu.Lock()
		if e.fired || v.stopped {
			v.mu.Unlock()
			f()
			return
		}
		e.waiters = append(e.waiters, waiter{fn: f})
		v.mu.Unlock()
		return
	}
	e.mu.Lock()
	if e.fired {
		e.mu.Unlock()
		f()
		return
	}
	e.waiters = append(e.waiters, waiter{fn: f})
	e.mu.Unlock()
}

// Done exposes the raw channel closed by Fire, for select-based waits in
// real-clock code (an HTTP handler racing a request context). A bare
// receive does not participate in run-queue accounting, so tracked
// goroutines under a virtual clock must use Wait/WaitTimeout/WaitCtx
// instead.
func (e *Event) Done() <-chan struct{} { return e.ch }

// Wait blocks until the event fires. Under a virtual clock the caller's
// execution slot is released while blocked and regained in run-queue order
// after Fire.
func (e *Event) Wait() {
	if v := e.v; v != nil {
		v.mu.Lock()
		if e.fired || v.stopped {
			v.mu.Unlock()
			return
		}
		g := &grant{ch: make(chan struct{})}
		e.waiters = append(e.waiters, waiter{g: g})
		v.parkLocked(g)
		return
	}
	<-e.ch
}

// WaitTimeout blocks until the event fires or d elapses, reporting whether
// the event fired.
func (e *Event) WaitTimeout(d time.Duration) bool {
	if v := e.v; v != nil {
		v.mu.Lock()
		if e.fired {
			v.mu.Unlock()
			return true
		}
		if v.stopped {
			v.mu.Unlock()
			return false
		}
		g := v.timedGrantLocked(d)
		e.waiters = append(e.waiters, waiter{g: g})
		v.parkLocked(g)
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
	if v := e.v; v != nil {
		v.mu.Lock()
		if e.fired || v.stopped {
			v.mu.Unlock()
			return nil
		}
		g := &grant{ch: make(chan struct{})}
		e.waiters = append(e.waiters, waiter{g: g})
		v.mu.Unlock()
		// Cancellation comes from outside the virtual world; the watcher
		// readies the waiter with a ctx wake.
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
	select {
	case <-e.ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Group is a sync.WaitGroup replacement whose Wait participates in the
// clock's run-queue accounting, so a goroutine joining its workers does not
// pin virtual time while blocked.
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

// Go runs f as one tracked worker on the Group's clock: Add(1), spawn via
// the clock, Done on return.
func (g *Group) Go(f func()) {
	g.Add(1)
	g.clk.Go(func() {
		defer g.Done()
		f()
	})
}

// Start is Go for a worker that never blocks: f is posted on the Group's
// clock where Go would spawn a goroutine, so under a virtual clock it runs
// inline on the scheduler loop and must not block through the clock. The
// worker counts as running until it calls done, which f may hand to a
// callback (Event.OnFire) that outlives it; done must be called exactly
// once.
func (g *Group) Start(f func(done func())) {
	g.Add(1)
	g.clk.NewQueue().Post(func() { f(g.Done) })
}

// Wait blocks until the worker count reaches zero.
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
