package vclock

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// newTestClock returns a running Virtual clock and registers its shutdown.
func newTestClock(t *testing.T) *Virtual {
	t.Helper()
	v := NewVirtual()
	t.Cleanup(v.Shutdown)
	return v
}

func TestVirtualSleepAdvancesWithoutWallTime(t *testing.T) {
	v := newTestClock(t)
	wall := time.Now()
	before := v.Now()
	v.Sleep(10 * time.Hour)
	if got := v.Since(before); got != 10*time.Hour {
		t.Fatalf("virtual elapsed = %v, want 10h", got)
	}
	if elapsed := time.Since(wall); elapsed > 2*time.Second {
		t.Fatalf("10h virtual sleep took %v of wall time", elapsed)
	}
	if v.Running() != 1 {
		t.Fatalf("running = %d after sleep, want 1 (the creator)", v.Running())
	}
}

func TestVirtualTimerOrdering(t *testing.T) {
	v := newTestClock(t)
	var order []int
	record := func(id int) func() { return func() { order = append(order, id) } }
	// Timers 1 and 2 tie at 5ms: creation order must break the tie.
	v.AfterFunc(5*time.Millisecond, record(1))
	v.AfterFunc(5*time.Millisecond, record(2))
	v.AfterFunc(9*time.Millisecond, record(3))
	v.AfterFunc(7*time.Millisecond, record(4))
	v.Sleep(20 * time.Millisecond)
	want := []int{1, 2, 4, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestVirtualIdleAdvanceWithBlockedGoroutines(t *testing.T) {
	v := newTestClock(t)
	g := NewGroup(v)
	var sum atomic.Int64
	for i := 1; i <= 4; i++ {
		i := i
		g.Go(func() {
			v.Sleep(time.Duration(i) * time.Hour)
			sum.Add(int64(i))
		})
	}
	g.Wait()
	if got := sum.Load(); got != 10 {
		t.Fatalf("sum = %d, want 10", got)
	}
	if got := v.Since(epoch); got != 4*time.Hour {
		t.Fatalf("virtual time advanced to %v, want 4h", got)
	}
}

func TestVirtualDeterministicGrantOrder(t *testing.T) {
	// Goroutines spawned in order, all sleeping until the same instant,
	// must resume in spawn order — every run, regardless of host load. No
	// mutex around order: serialized execution means the appends cannot
	// race, and -race verifies that claim.
	for trial := 0; trial < 20; trial++ {
		v := NewVirtual()
		g := NewGroup(v)
		var order []int
		for i := 0; i < 8; i++ {
			i := i
			g.Go(func() {
				v.Sleep(time.Second) // identical deadline for everyone
				order = append(order, i)
			})
		}
		g.Wait()
		if len(order) != 8 {
			t.Fatalf("trial %d: woke %d of 8", trial, len(order))
		}
		for i := range order {
			if order[i] != i {
				t.Fatalf("trial %d: wake order = %v, want ascending", trial, order)
			}
		}
		v.Shutdown()
	}
}

func TestVirtualAfterFuncStopPreventsFire(t *testing.T) {
	v := newTestClock(t)
	fired := false
	tm := v.AfterFunc(10*time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop reported not-pending for a queued timer")
	}
	v.Sleep(50 * time.Millisecond)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestVirtualTimerReset(t *testing.T) {
	v := newTestClock(t)
	var fires atomic.Int32
	tm := v.AfterFunc(10*time.Millisecond, func() { fires.Add(1) })
	if !tm.Reset(30 * time.Millisecond) {
		t.Fatal("Reset reported not-pending for a queued timer")
	}
	v.Sleep(20 * time.Millisecond)
	if got := fires.Load(); got != 0 {
		t.Fatalf("timer fired %d times before the reset deadline", got)
	}
	v.Sleep(20 * time.Millisecond)
	if got := fires.Load(); got != 1 {
		t.Fatalf("timer fired %d times, want 1", got)
	}
	// Re-arming after a fire works too.
	tm.Reset(5 * time.Millisecond)
	v.Sleep(10 * time.Millisecond)
	if got := fires.Load(); got != 2 {
		t.Fatalf("timer fired %d times after re-arm, want 2", got)
	}
}

func TestVirtualEventHandoff(t *testing.T) {
	v := newTestClock(t)
	ev := v.NewEvent()
	g := NewGroup(v)
	var woke atomic.Int32
	for i := 0; i < 3; i++ {
		g.Go(func() {
			ev.Wait()
			woke.Add(1)
		})
	}
	v.AfterFunc(time.Minute, ev.Fire)
	g.Wait()
	if got := woke.Load(); got != 3 {
		t.Fatalf("woke = %d, want 3", got)
	}
	if !ev.Fired() {
		t.Fatal("event not marked fired")
	}
	ev.Wait() // after Fire: returns immediately
	select {
	case <-ev.Done():
	default:
		t.Fatal("Done channel not closed after Fire")
	}
}

func TestVirtualEventWaitTimeout(t *testing.T) {
	v := newTestClock(t)
	ev := v.NewEvent()
	if ev.WaitTimeout(10 * time.Millisecond) {
		t.Fatal("WaitTimeout reported fired on a silent event")
	}
	v.AfterFunc(5*time.Millisecond, ev.Fire)
	if !ev.WaitTimeout(time.Hour) {
		t.Fatal("WaitTimeout missed the fire")
	}
	if !ev.WaitTimeout(0) {
		t.Fatal("WaitTimeout after fire must report true")
	}
}

func TestVirtualSleepCtxCancel(t *testing.T) {
	v := newTestClock(t)
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroup(v)
	errCh := make(chan error, 1)
	g.Go(func() {
		errCh <- v.SleepCtx(ctx, time.Hour)
	})
	// Cancel from outside the virtual world; the sleeper must return with
	// ctx's error without the clock having advanced to the full deadline.
	cancel()
	g.Wait()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("SleepCtx = %v, want context.Canceled", err)
	}
	if got := v.Since(epoch); got >= time.Hour {
		t.Fatalf("clock advanced to +%v during canceled sleep", got)
	}
}

func TestVirtualSleepCtxExpires(t *testing.T) {
	v := newTestClock(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := v.SleepCtx(ctx, 30*time.Second); err != nil {
		t.Fatalf("SleepCtx = %v, want nil", err)
	}
	if got := v.Since(epoch); got != 30*time.Second {
		t.Fatalf("virtual elapsed = %v, want 30s", got)
	}
}

func TestVirtualEventWaitCtxCancel(t *testing.T) {
	v := newTestClock(t)
	ev := v.NewEvent()
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroup(v)
	errCh := make(chan error, 1)
	g.Go(func() {
		errCh <- ev.WaitCtx(ctx)
	})
	cancel()
	g.Wait()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("WaitCtx = %v, want context.Canceled", err)
	}
}

func TestVirtualAddWorkBlocksAdvance(t *testing.T) {
	v := newTestClock(t)
	var fired atomic.Bool
	v.AfterFunc(time.Millisecond, func() { fired.Store(true) })
	// The pin holds the world: even with the creator parked in a sleep,
	// the 1ms timer must not fire while the pinned unit is outstanding.
	v.AddWork(1)
	done := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond) // real time: give a buggy scheduler room
		if fired.Load() {
			t.Error("timer fired while work was pinned")
		}
		v.WorkDone()
		close(done)
	}()
	v.Sleep(5 * time.Millisecond)
	<-done
	if !fired.Load() {
		t.Fatal("timer never fired after the pin was released")
	}
}

// TestVirtualRunQueueOrder interleaves every way of entering a partition's
// run queue — posts, Go spawns, AfterFunc(0) bodies, parked Event waiters and
// function Event waiters — and requires them to run in exactly call/wait
// order, whether a goroutine or the partition loop carries them.
func TestVirtualRunQueueOrder(t *testing.T) {
	v := newTestClock(t)
	q := v.NewQueue()
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }

	// Waiters on ev are readied by Fire in the order they began waiting.
	ev := v.NewEvent()
	g := NewGroup(v)
	g.Go(func() { ev.Wait(); note("wait1")() })
	v.Sleep(0) // let wait1 park
	ev.OnFire(note("fn2"))
	g.Go(func() { ev.Wait(); note("wait3")() })
	v.Sleep(0) // let wait3 park
	ev.OnFire(note("fn4"))

	var want []string
	for round := 0; round < 3; round++ {
		tag := func(s string) string { return fmt.Sprintf("%s/%d", s, round) }
		q.Post(note(tag("post")))
		g.Go(note(tag("go")))
		q.Post(note(tag("post2")))
		v.NewQueue().Post(note(tag("other-queue")))
		want = append(want, tag("post"), tag("go"), tag("post2"), tag("other-queue"))
	}
	q.Post(ev.Fire)
	q.Post(note("after-fire"))
	want = append(want, "after-fire", "wait1", "fn2", "wait3", "fn4")
	// Zero-delay timers fire once the run queue is dry, in creation order —
	// each body runs where its timer is popped — and whatever a body enqueues
	// runs before the next timer fires.
	v.AfterFunc(0, func() {
		note("timer1")()
		q.Post(note("timer1-post"))
		g.Go(note("timer1-go"))
	})
	v.AfterFunc(0, func() {
		note("timer2")()
		q.Post(note("timer2-post"))
	})
	want = append(want, "timer1", "timer1-post", "timer1-go", "timer2", "timer2-post")

	g.Wait()
	v.Sleep(time.Millisecond) // past the zero-delay timers
	g.Wait()
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v\nwant    %v", order, want)
	}

	// A function waiter registered after the fire runs at once, inline.
	ran := false
	ev.OnFire(func() { ran = true })
	if !ran {
		t.Fatal("OnFire on a fired event did not run inline")
	}
}

// TestVirtualFunctionsAfterShutdown: a stopped world has no run queue, so a
// post runs off it (as AfterFunc and Go do), and a Fire releases a function
// waiter registered before the shutdown instead of panicking on its nil
// channel.
func TestVirtualFunctionsAfterShutdown(t *testing.T) {
	v := NewVirtual()
	ev := v.NewEvent()
	ran := make(chan string, 2) // one send per function below
	ev.OnFire(func() { ran <- "waiter" })
	v.Shutdown()
	ev.Fire()
	v.NewQueue().Post(func() { ran <- "post" })
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		select {
		case s := <-ran:
			got[s] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("after Shutdown only %v ran", got)
		}
	}
}

func TestVirtualShutdownWakesSleepers(t *testing.T) {
	v := NewVirtual()
	g := NewGroup(v)
	g.Go(func() {
		v.Sleep(time.Hour)
	})
	// Pin the world so the scheduler cannot advance to the sleeper's
	// deadline, then shut down: the sleeper must return early, not hang.
	v.AddWork(1)
	v.Shutdown()
	done := make(chan struct{})
	go func() {
		g.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sleeper did not wake on Shutdown")
	}
}

func TestRealClockBasics(t *testing.T) {
	clk := System
	start := clk.Now()
	clk.Sleep(time.Millisecond)
	if clk.Since(start) <= 0 {
		t.Fatal("real clock did not advance")
	}
	ev := clk.NewEvent()
	if ev.Fired() {
		t.Fatal("fresh event fired")
	}
	ev.Fire()
	ev.Wait()
	if !ev.WaitTimeout(time.Second) {
		t.Fatal("fired event reported timeout")
	}
	// A Real queue runs its posts in order, one at a time, off the caller.
	q := clk.NewQueue()
	var order []int
	drained := make(chan struct{})
	for i := 0; i < 100; i++ {
		i := i
		q.Post(func() { order = append(order, i) })
	}
	q.Post(func() { close(drained) })
	<-drained
	for i, v := range order {
		if v != i {
			t.Fatalf("real queue ran post %d at position %d", v, i)
		}
	}
	var fnRan atomic.Bool
	ev2 := clk.NewEvent()
	ev2.OnFire(func() { fnRan.Store(true) })
	if fnRan.Load() {
		t.Fatal("function waiter ran before the fire")
	}
	ev2.Fire()
	if !fnRan.Load() {
		t.Fatal("Fire did not run the function waiter")
	}
	g := NewGroup(clk)
	var n atomic.Int32
	for i := 0; i < 3; i++ {
		g.Go(func() { n.Add(1) })
	}
	g.Wait()
	if n.Load() != 3 {
		t.Fatalf("group ran %d workers, want 3", n.Load())
	}
}

func TestDefaultNilCoalesces(t *testing.T) {
	if Default(nil) != System {
		t.Fatal("Default(nil) is not the System clock")
	}
	v := newTestClock(t)
	if Default(v) != Clock(v) {
		t.Fatal("Default(v) did not pass through")
	}
}

// TestWorldRunQueueOrder is TestVirtualRunQueueOrder for the Group's two
// kinds of worker: inline workers (Start), each filling the run queue with
// posts, a parked and a function Event waiter and a zero-delay timer, and
// goroutine workers (Go). The clock must run them in call/wait order — the
// order below, read off the rules: starts and spawns run as they were
// queued, each start's posts queue behind the later starts, a fire readies
// its waiters at the back of the queue in wait order, and timers fire once
// the queue is dry, what a timer's body posts running before the next timer
// fires — at GOMAXPROCS 1 and at 4, where the goroutines could race.
func TestWorldRunQueueOrder(t *testing.T) {
	const rounds = 3
	var want []string
	for _, pair := range [][2]string{{"start", "go"}, {"post", "after-fire"}, {"parked", "fn"}, {"timer", "timer-post"}} {
		for r := 0; r < rounds; r++ {
			want = append(want, fmt.Sprintf("%s/%d", pair[0], r), fmt.Sprintf("%s/%d", pair[1], r))
		}
	}
	for _, procs := range []int{1, 4} {
		procs := procs
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			v := newTestClock(t)
			// No mutex around order: serialized execution means the appends
			// cannot race, and -race verifies that claim.
			var order []string
			note := func(what string, r int) func() {
				return func() { order = append(order, fmt.Sprintf("%s/%d", what, r)) }
			}
			g := NewGroup(v)
			for r := 0; r < rounds; r++ {
				r := r
				g.Start(func(done func()) {
					note("start", r)()
					q, ev := v.NewQueue(), v.NewEvent()
					v.Go(func() { ev.Wait(); note("parked", r)() })
					q.Post(func() { ev.OnFire(note("fn", r)) }) // behind the parked waiter
					q.Post(note("post", r))
					v.AfterFunc(0, func() {
						note("timer", r)()
						q.Post(note("timer-post", r))
					})
					q.Post(ev.Fire)
					q.Post(note("after-fire", r))
					q.Post(done)
				})
				g.Go(note("go", r))
			}
			g.Wait()
			v.Sleep(time.Second) // past the timers
			if !reflect.DeepEqual(order, want) {
				t.Errorf("ran\n  %v\nwant\n  %v", order, want)
			}
		})
	}
}

// TestSleepCtxYieldCancelled is the regression test for a double grant: a
// zero-length SleepCtx whose context is cancelled while the yield is still
// queued used to put the same grant on the run queue twice, and the
// scheduler loop panicked closing its channel a second time.
// The subtest keeps the name it had when a two-partition case ran beside it.
func TestSleepCtxYieldCancelled(t *testing.T) {
	t.Run("partitions1", func(t *testing.T) {
		for i := 0; i < 200; i++ {
			v := NewVirtual()
			ctx, cancel := context.WithCancel(context.Background())
			v.Go(cancel)
			if err := v.SleepCtx(ctx, 0); err != nil && err != context.Canceled {
				t.Fatalf("SleepCtx = %v", err)
			}
			v.Sleep(time.Second)
			v.Shutdown()
		}
	})
}

// TestWorldGroupCountsInFlight checks that a Group counts both kinds of
// worker until they finish: goroutines parked in a sleep, and inline workers
// whose done runs from a timer long after the worker body returned. Wait
// returns only after all of them have.
func TestWorldGroupCountsInFlight(t *testing.T) {
	v := newTestClock(t)
	g := NewGroup(v)
	var finished atomic.Int32
	for i := 0; i < 4; i++ {
		d := time.Duration(i+1) * time.Millisecond
		g.Go(func() {
			v.Sleep(d)
			finished.Add(1)
		})
		g.Start(func(done func()) {
			v.AfterFunc(d, func() {
				finished.Add(1)
				done()
			})
		})
	}
	g.Wait()
	if n := finished.Load(); n != 8 {
		t.Fatalf("Wait returned with %d of 8 workers finished", n)
	}
}

// TestWorldShutdownReleasesSleepers is the shutdown contract for tracked
// goroutines (TestVirtualShutdownWakesSleepers checks it for an outside
// waiter): with an outsider's pin holding time still, a worker parked in an
// hour-long sleep and the clock's creator parked in Group.Wait are both
// released by Shutdown.
func TestWorldShutdownReleasesSleepers(t *testing.T) {
	v := NewVirtual()
	g := NewGroup(v)
	g.Go(func() { v.Sleep(time.Hour) })
	v.Sleep(0)   // let the sleeper park
	v.AddWork(1) // the pin: the hour can never pass
	go func() {
		time.Sleep(10 * time.Millisecond) // let the creator park
		v.Shutdown()
	}()
	waited := make(chan struct{})
	go func() {
		select {
		case <-waited:
		case <-time.After(10 * time.Second):
			panic("vclock: shutdown did not release a parked sleeper")
		}
	}()
	g.Wait() // released by shutdown: the hour-long sleep returns early
	close(waited)
}

// TestDeliveryTimerRecycled: a Schedule call has no handle, so the clock
// keeps the timer it pops for the next Schedule. A chain of 10 000 calls —
// each body scheduling the next — must run every body once, at the right
// instant, on one timer. The -race pass of this package checks that the
// reuse is properly ordered.
// The subtest keeps the name it had when a two-partition case ran beside it.
func TestDeliveryTimerRecycled(t *testing.T) {
	const (
		hops = 10000
		step = 2 * time.Millisecond
	)
	t.Run("partitions1", func(t *testing.T) {
		v := newTestClock(t)
		start := v.Now()
		ran := 0
		var hop func()
		hop = func() {
			ran++
			if got, want := v.Since(start), time.Duration(ran)*step; got != want {
				t.Errorf("call %d ran at +%v, want +%v", ran, got, want)
			}
			if ran < hops {
				Schedule(v, step, hop)
			}
		}
		Schedule(v, step, hop)
		v.Sleep(time.Duration(hops+1) * step)
		if ran != hops {
			t.Fatalf("%d of %d calls ran", ran, hops)
		}
		v.mu.Lock()
		defer v.mu.Unlock()
		if n := len(v.free); n != 1 {
			t.Fatalf("%d spent timers after %d calls, want the chain's one", n, hops)
		}
	})
}

// TestSameInstantTimersScaleLinearly: k timers sharing one deadline cost the
// same per timer at any k. Arming and firing a timer allocates a fixed
// number of objects, so the allocations per timer of one arm-and-fire cycle
// (heap growth is kept by the warm-up run) must round to the same count at
// 2 000 and at 50 000 same-deadline timers. Counting allocations instead of
// timing the cycle keeps a loaded host from failing the test.
func TestSameInstantTimersScaleLinearly(t *testing.T) {
	perTimer := func(k int) float64 {
		v := NewVirtual()
		defer v.Shutdown()
		fired := 0
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < k; i++ {
				v.AfterFunc(time.Millisecond, func() { fired++ })
			}
			v.Sleep(2 * time.Millisecond)
		})
		if fired != 2*k { // AllocsPerRun runs the cycle once more to warm up
			t.Fatalf("%d of %d same-deadline timers fired", fired, 2*k)
		}
		return allocs / float64(k)
	}
	small, large := perTimer(2000), perTimer(50000)
	t.Logf("allocations per timer: %.4f at 2 000, %.4f at 50 000", small, large)
	if math.Round(small) != math.Round(large) {
		t.Fatalf("allocations per timer %.4f at 50 000 same-deadline timers vs %.4f at 2 000", large, small)
	}
}
