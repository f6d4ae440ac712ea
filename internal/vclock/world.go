package vclock

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxDur is the "no pending work" sentinel for partition bases.
const maxDur = time.Duration(math.MaxInt64)

// epoch is the fixed origin of every virtual clock. A constant origin (and
// never the host's wall clock) is what makes timestamps recorded during a
// run — WAL entries, outcome brackets, decay horizons — identical across
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

// grant is one execution slot in a partition's run queue. Either a parked
// goroutine waits on ch for the slot to be granted, or fn is a function
// (AfterFunc body, Queue.Post, Event.OnFire) executed inline when the slot
// comes up.
type grant struct {
	p     *Partition    // partition whose run queue the slot belongs to
	ch    chan struct{} // closed when granted (nil for fn grants)
	fn    func()        // function to run inline (nil for parked goroutines)
	timer *wtimer       // companion timeout timer, descheduled on other wakes
	cause int           // why a parked grant was woken; causeNone = still parked
}

// World is the deterministic discrete-event scheduler: a set of Partition
// clocks, each running the serialized discipline of the package comment
// locally while executing concurrently with the others on real cores. A
// world of one partition (NewVirtual; a cluster's control partition alone)
// is the serialized virtual clock: with no peers the horizon below is
// unbounded and only the local rules remain. A cluster under ParallelTime
// has one partition per region plus a control partition for driver code.
//
// Determinism under parallelism comes from conservative lookahead
// synchronization. Every ordered partition pair (S, P) has a lookahead
// la(S→P) > 0: the minimum virtual delay of any cross-partition effect from
// S to P (in the WAN emulator, the latency floor of the S→P link). Define
//
//	base(Q)    = Q's now while Q is busy, its earliest pending event time
//	             while idle, +inf when it has nothing scheduled;
//	horizon(P) = min over Q≠P of base(Q) + la(Q→P).
//
// P may execute an event at time t only while t < horizon(P) (strictly).
// Because cross-partition effects always land at least la in the sender's
// future, every event that could still arrive at P carries a timestamp
// >= horizon(P) > t, so the set and order of events P executes is a pure
// function of the initial state — the OS scheduler never gets a vote. The
// lookahead matrix is closed under the triangle inequality at construction,
// which also makes horizons monotone: an admitted event can never be
// invalidated by a later arrival.
//
// Cross-partition events are stamped (virtual_time, sender_partition, seq)
// — seq allocated per sender, whose execution is serialized — and merged
// into the destination's heap in that total order; at equal timestamps,
// cross-partition events sort before locally scheduled ones (the strict
// horizon guarantees all same-time arrivals are present before execution).
//
// All partitions share one mutex: scheduling transitions are short (timer-
// wheel ops and a horizon scan), and the event handlers — where the
// simulation actually spends its time — run with the lock released, in
// parallel. Wake-ups are targeted: each partition loop sleeps on its own
// condition variable and is signaled only when its admission predicate
// could have changed (new local work, or a peer's base advancing past a
// horizon block), so one partition's scheduling traffic does not stampede
// the rest. Two counters shave the synchronization overhead further:
// horizonWaiters lets base-raise notifications skip the peer walk when no
// loop is blocked, and activeParts lets the admission check skip the
// horizon scan entirely when a single partition owns all pending work —
// every peer base is then +inf, so the horizon is trivially unbounded.
type World struct {
	mu             sync.Mutex
	parts          []*Partition
	byName         map[string]*Partition
	la             [][]time.Duration // closed lookahead matrix, la[src][dst]
	stopped        bool
	horizonWaiters int // partition loops asleep blocked by their horizon
	activeParts    int // partitions with running slots, ready work, or timers
}

// NewWorld builds a world with one partition per name (in order; the index
// is the deterministic tie-break rank) and the given lookahead matrix:
// la[i][j] is the minimum virtual delay of any cross-partition effect from
// partition i to partition j, and must be positive for i != j. The matrix
// is closed under the triangle inequality internally. The constructing
// goroutine holds partition 0's execution slot and must block only through
// clock primitives (Sleep, Event waits, Group.Wait). Timer callbacks, posted
// functions and function waiters run one at a time per partition and must
// not block through the clock either — they may freely create timers, fire
// events, spawn via Go, and post.
func NewWorld(names []string, la [][]time.Duration) (*World, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("vclock: world needs at least one partition")
	}
	if len(la) != len(names) {
		return nil, fmt.Errorf("vclock: lookahead matrix is %dx, want %d rows", len(la), len(names))
	}
	seen := make(map[string]bool, len(names))
	closed := make([][]time.Duration, len(names))
	for i, name := range names {
		if seen[name] {
			return nil, fmt.Errorf("vclock: duplicate partition name %q", name)
		}
		seen[name] = true
		if len(la[i]) != len(names) {
			return nil, fmt.Errorf("vclock: lookahead row %d has %d entries, want %d", i, len(la[i]), len(names))
		}
		closed[i] = append([]time.Duration(nil), la[i]...)
		for j := range names {
			if i != j && closed[i][j] <= 0 {
				return nil, fmt.Errorf("vclock: lookahead %s->%s must be positive", names[i], names[j])
			}
		}
	}
	// Floyd–Warshall metric closure: la[i][j] <= la[i][k] + la[k][j] for all
	// k. Without it a relayed message could undercut a direct lookahead and
	// invalidate an already-admitted event.
	n := len(names)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || i == k || j == k {
					continue
				}
				if via := closed[i][k] + closed[k][j]; via < closed[i][j] {
					closed[i][j] = via
				}
			}
		}
	}
	return newWorld(names, closed), nil
}

// newWorld starts a world over validated names and a closed lookahead
// matrix, which it keeps.
func newWorld(names []string, closed [][]time.Duration) *World {
	w := &World{byName: make(map[string]*Partition, len(names)), la: closed}
	for i, name := range names {
		p := &Partition{w: w, id: i, name: name}
		p.cond = sync.NewCond(&w.mu)
		w.parts = append(w.parts, p)
		w.byName[name] = p
	}
	w.parts[0].running = 1 // the constructing goroutine holds partition 0's slot
	w.parts[0].active = true
	w.activeParts = 1
	for _, p := range w.parts {
		go p.run()
	}
	return w
}

// Partition returns the named partition's clock, or nil if unknown.
func (w *World) Partition(name string) *Partition { return w.byName[name] }

// Partitions returns the partitions in construction (tie-break) order.
func (w *World) Partitions() []*Partition { return append([]*Partition(nil), w.parts...) }

// Shutdown stops every partition loop, discards pending callbacks (timers,
// and functions still waiting on a run queue), and wakes parked sleepers
// (their Sleep returns early, WaitTimeout reports false). Call once the
// simulated world is drained.
func (w *World) Shutdown() {
	w.mu.Lock()
	w.stopped = true
	for _, p := range w.parts {
		p.cond.Signal()
	}
	w.mu.Unlock()
}

// Partition is one serialized scheduler inside a World, and the only
// virtual Clock implementation. Within a partition at most one tracked
// goroutine runs at a time: the partition hands its single execution slot to
// waiters in strict FIFO order of when they became runnable, and advances
// its time only when the run queue is empty and nothing is running, jumping
// straight to the earliest pending deadline, so a run spends zero wall time
// asleep. Across partitions, execution is concurrent and ordered by the
// conservative horizon.
//
// Cross-partition scheduling must go through ScheduleCross / RunOn /
// Group.GoOn (or an Event homed on the firing partition) so the effect
// passes through the deterministic merge layer. Calling a partition's own
// methods from a goroutine tracked by a different partition bypasses that
// layer and reintroduces real-time races.
type Partition struct {
	w    *World
	id   int
	name string

	// clock mirrors now for Now, which every send, vote and callback calls:
	// the partition loop is now's only writer and stores both under w.mu, so
	// readers need no lock.
	clock atomic.Int64

	// All fields below are guarded by w.mu.
	cond        *sync.Cond // wakes this partition's loop only
	horizonWait bool       // loop is asleep blocked by its horizon
	active      bool       // counted in w.activeParts
	now         time.Duration
	running     int // granted execution slots (1 in steady state; AddWork pins add)
	// The run queue is ready[head:]. Taking a grant advances head, and the
	// slice rewinds to its start whenever the queue drains (a partition's time
	// advances only then), so steady-state appends reuse one backing array.
	ready  []*grant
	head   int
	timers wheel[*wtimer]
	free   []*wtimer // spent delivery timers (ScheduleCross), for reuse
	seq    uint64    // local insertion order (timer ties)
	xseq   uint64    // cross-partition send order (merge-layer ties)
}

// syncActiveLocked reconciles p's membership in w.activeParts after any
// change to its running slots, run queue, or timer population. Caller holds
// w.mu.
func (p *Partition) syncActiveLocked() {
	a := p.running > 0 || len(p.ready) > 0 || p.timers.live > 0
	if a == p.active {
		return
	}
	p.active = a
	if a {
		p.w.activeParts++
	} else {
		p.w.activeParts--
	}
}

// Name returns the partition's name.
func (p *Partition) Name() string { return p.name }

// Shutdown is World.Shutdown on the world p belongs to, for holders of a
// one-partition world's clock (NewVirtual), who never see the World.
func (p *Partition) Shutdown() { p.w.Shutdown() }

// run is the partition loop: grant ready work, and pop the timer wheel only
// while the head is inside the conservative horizon. A popped timer's body
// runs right there: the run queue is empty at a pop, so that is the slot a
// grant appended for it would have been given next.
func (p *Partition) run() {
	w := p.w
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.stopped {
			p.drainLocked()
			return
		}
		if p.running > 0 {
			p.cond.Wait()
			continue
		}
		if len(p.ready) > 0 {
			g := p.ready[p.head]
			p.ready[p.head] = nil
			p.head++
			if p.head == len(p.ready) {
				p.ready, p.head = p.ready[:0], 0
			}
			if g.fn != nil {
				p.callLocked(g.fn)
			} else {
				p.running++
				close(g.ch)
			}
			continue
		}
		if p.timers.live > 0 {
			t, when, _ := p.timers.peekMin()
			// Admit when the head is at or behind local time, when this
			// partition owns all pending work (every peer base is +inf, so
			// the horizon is trivially unbounded — no scan needed), or when
			// the head is strictly inside the conservative horizon.
			if when <= p.now || (w.activeParts == 1 && p.active) || when < p.horizonLocked() {
				p.timers.popMin()
				if when > p.now {
					p.now = when
					p.clock.Store(int64(when))
				}
				if fn := t.fn; fn != nil {
					if t.recycle {
						t.fn = nil
						p.free = append(p.free, t)
					}
					p.callLocked(fn)
					continue
				}
				p.syncActiveLocked()
				t.fireLocked()
				// Popping the head can only raise base(p): it was the head's
				// time and is now p.now (equal, if the fire readied local
				// work) or the next head / +inf (if it shipped elsewhere).
				p.baseRaisedLocked()
				continue
			}
			p.horizonWait = true
			w.horizonWaiters++
			p.cond.Wait()
			p.horizonWait = false
			w.horizonWaiters--
			continue
		}
		p.cond.Wait()
	}
}

// callLocked runs fn on the partition loop, holding p's execution slot for
// the call. Caller holds w.mu, released while fn runs.
func (p *Partition) callLocked(fn func()) {
	p.running++
	p.w.mu.Unlock()
	fn()
	p.w.mu.Lock()
	p.running--
	p.syncActiveLocked()
	p.baseRaisedLocked()
}

// baseRaisedLocked propagates a possible base(p) increase — p just released
// an execution slot or dropped its head timer — to peers blocked on their
// horizons. Caller holds w.mu.
func (p *Partition) baseRaisedLocked() {
	if p.running == 0 && len(p.ready) == 0 {
		p.wakeHorizonPeersLocked()
	}
}

// wakeHorizonPeersLocked signals every peer loop asleep on its horizon:
// base(p) rose, so their horizons may have too. Caller holds w.mu. The
// common case — nobody blocked — is a single counter check.
func (p *Partition) wakeHorizonPeersLocked() {
	if p.w.horizonWaiters == 0 {
		return
	}
	for _, q := range p.w.parts {
		if q != p && q.horizonWait {
			q.cond.Signal()
		}
	}
}

// baseLocked is the earliest virtual time at which p could still produce an
// effect. Caller holds w.mu.
func (p *Partition) baseLocked() time.Duration {
	if p.running > 0 || len(p.ready) > 0 {
		return p.now
	}
	if _, when, ok := p.timers.peekMin(); ok {
		return when
	}
	return maxDur
}

// horizonLocked is the conservative bound below which p may execute.
// Caller holds w.mu.
func (p *Partition) horizonLocked() time.Duration {
	w := p.w
	h := maxDur
	for _, q := range w.parts {
		if q == p {
			continue
		}
		b := q.baseLocked()
		la := w.la[q.id][p.id]
		if b >= maxDur-la {
			continue // effectively unbounded
		}
		if b+la < h {
			h = b + la
		}
	}
	return h
}

// drainLocked wakes everything at shutdown. Caller holds w.mu.
func (p *Partition) drainLocked() {
	for _, g := range p.ready[p.head:] {
		if g.ch != nil {
			close(g.ch)
		}
	}
	p.ready, p.head = nil, 0
	p.timers.forEach(func(t *wtimer) {
		if t.g != nil && t.g.cause == causeNone {
			t.g.cause = causeShutdown
			close(t.g.ch)
		}
	})
	p.timers.reset()
	p.syncActiveLocked()
}

// readyLocked appends g to the run queue. Caller holds w.mu.
func (p *Partition) readyLocked(g *grant) {
	p.ready = append(p.ready, g)
	p.syncActiveLocked()
	p.cond.Signal()
}

// parkLocked releases the caller's execution slot and blocks until g is
// granted. Caller holds w.mu and owns p's slot; returns without the lock.
func (p *Partition) parkLocked(g *grant) {
	p.running--
	if p.running < 0 {
		panic("vclock: park without an execution slot (untracked goroutine blocked through the clock)")
	}
	p.cond.Signal()
	p.syncActiveLocked()
	p.baseRaisedLocked()
	p.w.mu.Unlock()
	<-g.ch
}

// exitLocked gives the execution slot back without a wake-up to wait for.
// Caller holds w.mu.
func (p *Partition) exitLocked() {
	p.running--
	if p.running < 0 {
		panic("vclock: unbalanced execution-slot release")
	}
	p.cond.Signal()
	p.syncActiveLocked()
	p.baseRaisedLocked()
}

// wakeLocked readies a waiting grant — a parked goroutine or a function
// waiter — on its partition, with the given cause, descheduling its companion
// timer. A no-op when the grant was already woken. Caller holds w.mu.
func (g *grant) wakeLocked(cause int) {
	if g.cause != causeNone {
		return
	}
	g.cause = cause
	if g.timer != nil {
		g.timer.p.cancelTimerLocked(g.timer)
	}
	if g.p.w.stopped {
		// The partition loops have exited; release the waiter directly
		// instead of queueing it on a dead run queue.
		if g.fn != nil {
			go g.fn()
		} else {
			close(g.ch)
		}
		return
	}
	g.p.readyLocked(g)
}

// scheduleLocked inserts t into p's timer wheel under the ordering key
// (t.when, a, b). A cross delivery's (a, b) is (sender id, sender seq), a
// local timer's is (insertion seq with localKeyBit set, 0), so the wheel's
// unsigned compare fires same-instant entries cross before local, crosses by
// sender then send order, locals in creation order. Caller holds w.mu.
func (p *Partition) scheduleLocked(t *wtimer, a, b uint64) {
	p.timers.schedule(t.when, a, b, t)
	p.syncActiveLocked()
	p.cond.Signal()
}

// armLocked schedules t as a local timer of p firing at now+d. Caller holds
// w.mu.
func (p *Partition) armLocked(t *wtimer, d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.when = p.now + d
	p.scheduleLocked(t, localKeyBit|p.seq, 0)
	p.seq++
}

// cancelTimerLocked lazily removes t from p's wheel, propagating a possible
// base raise. Reports whether t was scheduled. Caller holds w.mu.
func (p *Partition) cancelTimerLocked(t *wtimer) bool {
	if !p.timers.cancel(t) {
		return false
	}
	p.syncActiveLocked()
	p.baseRaisedLocked() // head timer may have risen
	return true
}

// newTimerLocked registers a local timer firing at now+d. Caller holds w.mu.
func (p *Partition) newTimerLocked(d time.Duration) *wtimer {
	t := &wtimer{p: p, cause: causeTimer}
	p.armLocked(t, d)
	return t
}

// timedGrantLocked returns a grant for the caller to park on, with a
// companion timer that wakes it after d unless something else does first.
// Caller holds w.mu.
func (p *Partition) timedGrantLocked(d time.Duration) *grant {
	g := &grant{ch: make(chan struct{}), p: p}
	g.timer = p.newTimerLocked(d)
	g.timer.g = g
	return g
}

// sleepGrantLocked returns the grant a sleep of d parks on: timed, or for
// d <= 0 a yield to the back of the run queue. Caller holds w.mu.
func (p *Partition) sleepGrantLocked(d time.Duration) *grant {
	if d > 0 {
		return p.timedGrantLocked(d)
	}
	// A yield is woken the moment it is queued. Recording that keeps a
	// context cancelled before the slot comes up from readying it again.
	g := &grant{ch: make(chan struct{}), p: p, cause: causeTimer}
	p.readyLocked(g)
	return g
}

// crossLocked stamps t with (src.now + max(d, la), src, seq) and merges it
// into dst's heap. Caller holds w.mu and must be executing on src (sends
// from a partition are serialized, which is what makes seq deterministic).
func (w *World) crossLocked(src, dst *Partition, d time.Duration, t *wtimer) {
	if la := w.la[src.id][dst.id]; d < la {
		d = la // the lookahead is a promise; never undercut it
	}
	t.p = dst
	t.when = src.now + d
	dst.scheduleLocked(t, uint64(src.id), src.xseq)
	src.xseq++
}

// partitionOf unwraps clk to its World partition, or nil.
func partitionOf(clk Clock) *Partition {
	p, _ := clk.(*Partition)
	return p
}

// ScheduleCross schedules f to run on dst's partition at src's now + d,
// clamped up to the src→dst lookahead and delivered through the merge
// layer, so same-seed runs execute it at an identical point regardless of
// thread interleaving. The caller must be executing on src. Within one
// partition it is dst.AfterFunc(d, f), and so it is when src and dst are
// not partitions of one World (real clocks). It is fire-and-forget: no
// handle to the delivery exists, which is what lets a partition reuse the
// timer of one delivery for a later one.
func ScheduleCross(src, dst Clock, d time.Duration, f func()) {
	sp, dp := partitionOf(src), partitionOf(dst)
	if sp == nil || dp == nil || sp.w != dp.w {
		Default(dst).AfterFunc(d, f)
		return
	}
	w := sp.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped {
		go f()
		return
	}
	var t *wtimer
	if n := len(sp.free); n > 0 {
		t, sp.free[n-1] = sp.free[n-1], nil
		sp.free = sp.free[:n-1]
	} else {
		t = &wtimer{cause: causeTimer, recycle: true}
	}
	t.fn = f
	if sp == dp {
		t.p = dp
		dp.armLocked(t, d)
	} else {
		w.crossLocked(sp, dp, d, t)
	}
}

// RunOn executes f synchronously on dst's partition: the call ships to dst
// through the merge layer, f runs holding dst's execution slot (it must not
// block through the clock), and the completion ships back, waking the
// caller at a deterministic virtual time. The caller must be a tracked
// goroutine executing on src. When src and dst are not two distinct
// partitions of one World, f runs inline.
func RunOn(src, dst Clock, f func()) {
	sp, dp := partitionOf(src), partitionOf(dst)
	if sp == nil || dp == nil || sp == dp || sp.w != dp.w {
		f()
		return
	}
	w := sp.w
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		f()
		return
	}
	g := &grant{ch: make(chan struct{}), p: sp}
	call := &wtimer{cause: causeTimer}
	call.fn = func() {
		f()
		w.mu.Lock()
		if w.stopped {
			// The partition loops have exited; release the caller directly.
			if g.cause == causeNone {
				g.cause = causeShutdown
				close(g.ch)
			}
			w.mu.Unlock()
			return
		}
		back := &wtimer{g: g, cause: causeTimer}
		w.crossLocked(dp, sp, 0, back)
		w.mu.Unlock()
	}
	w.crossLocked(sp, dp, 0, call)
	sp.parkLocked(g)
}

// Now implements Clock.
func (p *Partition) Now() time.Time { return epoch.Add(time.Duration(p.clock.Load())) }

// Since implements Clock.
func (p *Partition) Since(t time.Time) time.Duration { return p.Now().Sub(t) }

// Until implements Clock.
func (p *Partition) Until(t time.Time) time.Duration { return t.Sub(p.Now()) }

// Sleep implements Clock: the caller's slot is released for the duration,
// so the partition may advance straight to the wake-up (or any earlier
// work) with zero wall-clock cost. Sleep(0) yields: the caller goes to the
// back of the run queue.
func (p *Partition) Sleep(d time.Duration) {
	w := p.w
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	p.parkLocked(p.sleepGrantLocked(d))
}

// SleepCtx implements Clock. Cancellation comes from outside the virtual
// world and wakes the sleeper immediately (real-time, not merge-ordered);
// deterministic runs use contexts that never fire.
func (p *Partition) SleepCtx(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if ctx.Done() == nil {
		p.Sleep(d)
		return nil
	}
	w := p.w
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return ctx.Err()
	}
	g := p.sleepGrantLocked(d)
	w.mu.Unlock()
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

// AfterFunc implements Clock: f runs on p's partition loop at the local
// virtual deadline and must not block through the clock.
func (p *Partition) AfterFunc(d time.Duration, f func()) Timer {
	w := p.w
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		go f()
		return &wtimer{p: p}
	}
	t := p.newTimerLocked(d)
	t.fn = f
	w.mu.Unlock()
	return t
}

// NewTimer implements Clock. The returned timer delivers the fire into a
// buffered channel with no run-queue participation, so a tracked goroutine
// must not bare-receive from C (it would hold the execution slot and wedge
// the world); C is for select loops in real-clock-domain code that happen
// to hold a virtual clock. Tracked code should use Sleep or Events.
func (p *Partition) NewTimer(d time.Duration) Timer {
	w := p.w
	w.mu.Lock()
	if w.stopped {
		t := &wtimer{p: p, ch: make(chan time.Time, 1)}
		t.ch <- epoch.Add(p.now)
		w.mu.Unlock()
		return t
	}
	t := p.newTimerLocked(d)
	t.ch = make(chan time.Time, 1)
	w.mu.Unlock()
	return t
}

// NewEvent implements Clock. The event is homed on p: Fire must be called
// from p's partition (waiters on other partitions are woken through the
// merge layer). See Event.
func (p *Partition) NewEvent() *Event {
	return &Event{p: p, ch: make(chan struct{})}
}

// Go implements Clock: the spawn is ordered at the point of the call on p's
// run queue. The caller must be executing on p (use Group.GoOn or
// ScheduleCross to spawn across partitions).
func (p *Partition) Go(f func()) {
	w := p.w
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		go f()
		return
	}
	g := &grant{ch: make(chan struct{}), p: p}
	p.readyLocked(g)
	w.mu.Unlock()
	go func() {
		<-g.ch
		f()
		w.mu.Lock()
		p.exitLocked()
		w.mu.Unlock()
	}()
}

// NewQueue implements Clock. The partition's run queue is already serial,
// so every owner's queue is the partition itself.
func (p *Partition) NewQueue() Queue { return p }

// Post implements Queue: f takes a run-queue slot now and runs on p's
// partition loop when the slot comes up.
// The caller must be executing on p.
func (p *Partition) Post(f func()) {
	w := p.w
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		go f()
		return
	}
	p.readyLocked(&grant{p: p, fn: f})
	w.mu.Unlock()
}

// AddWork implements Clock: the n units pin this partition at its current
// now (conservatively stalling peers at now + lookahead) until balanced by
// WorkDone. For untracked goroutines poking the world from outside.
func (p *Partition) AddWork(n int) {
	if n <= 0 {
		return
	}
	p.w.mu.Lock()
	p.running += n
	p.syncActiveLocked()
	p.w.mu.Unlock()
}

// WorkDone implements Clock.
func (p *Partition) WorkDone() {
	p.w.mu.Lock()
	p.exitLocked()
	p.w.mu.Unlock()
}

// Running reports the granted-slot count (tests, debugging).
func (p *Partition) Running() int {
	p.w.mu.Lock()
	defer p.w.mu.Unlock()
	return p.running
}

// PendingTimers reports how many timers are scheduled (tests, debugging).
func (p *Partition) PendingTimers() int {
	p.w.mu.Lock()
	defer p.w.mu.Unlock()
	return p.timers.live
}

// fireEventLocked delivers an Event fire homed on p: local waiters are
// readied in arrival order; waiters parked on other partitions are woken
// through the merge layer at now + lookahead. Waiters are grouped by
// destination partition (arrival order across partitions is not
// deterministic; within one partition it is). Caller holds w.mu.
func (p *Partition) fireEventLocked(waiters []*grant) {
	w := p.w
	if len(waiters) > 1 {
		sort.SliceStable(waiters, func(i, j int) bool { return waiters[i].p.id < waiters[j].p.id })
	}
	for _, g := range waiters {
		if g.p == p || w.stopped {
			g.wakeLocked(causeEvent)
			continue
		}
		wt := &wtimer{g: g, cause: causeEvent}
		w.crossLocked(p, g.p, 0, wt)
	}
}

// wtimer is one scheduled entry in a partition's timer wheel: a local
// timer, a cross-partition delivery, or a shipped wake-up.
type wtimer struct {
	p       *Partition
	when    time.Duration
	fn      func() // body, run by the partition loop where the timer is popped
	ch      chan time.Time
	g       *grant
	cause   int  // wake cause delivered to g
	recycle bool // a ScheduleCross delivery: nothing else holds it once popped
	node    wheelNode
}

// wheelState exposes the wheel bookkeeping node.
func (t *wtimer) wheelState() *wheelNode { return &t.node }

// fireLocked delivers a timer that has no body: a wake-up or a channel
// send. Caller holds w.mu; the timer was just popped from p's wheel.
func (t *wtimer) fireLocked() {
	switch {
	case t.g != nil:
		t.g.wakeLocked(t.cause)
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
	w := t.p.w
	w.mu.Lock()
	defer w.mu.Unlock()
	return t.stopLocked()
}

// stopLocked is Stop under w.mu.
func (t *wtimer) stopLocked() bool {
	if t.p.cancelTimerLocked(t) {
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

// Reset implements Timer. The timer is re-keyed as a local timer of its
// partition (delivery timers are never reset).
func (t *wtimer) Reset(d time.Duration) bool {
	w := t.p.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped {
		return false
	}
	wasPending := t.stopLocked()
	t.p.armLocked(t, d)
	return wasPending
}
