package vclock

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stormClocks abstracts "one clock per partition" so the same storm can run
// on a partitioned World and on a one-partition world (where every storm
// partition maps to the one clock and the cross-partition helpers
// degenerate to plain local scheduling at identical virtual times).
type stormClocks struct {
	ctl   Clock
	parts []Clock
	la    [][]time.Duration // lookahead by storm partition index; nil when all share one clock
}

// lookahead is the promised minimum delay of an effect from storm partition
// src to dst.
func (c stormClocks) lookahead(src, dst int) time.Duration {
	if c.la == nil || src == dst {
		return 0
	}
	return c.la[src][dst]
}

// stormRec is one delivered action and the virtual instant it ran at.
type stormRec struct {
	what string
	at   time.Duration
}

// stormLog collects delivered actions per partition. Appends happen only
// from the owning partition's serialized execution; the mutex makes the
// collection robust regardless.
type stormLog struct {
	t    *testing.T
	mu   sync.Mutex
	recs [][]stormRec
	last []time.Duration // latest instant observed on each partition
}

// observe reads clk, the clock of partition part, from code executing on it,
// and fails the test if that partition's time ran backwards.
func (l *stormLog) observe(part int, clk Clock) time.Duration {
	now := clk.Since(epoch)
	l.mu.Lock()
	if now < l.last[part] {
		l.t.Errorf("partition %d: time ran backwards, %v after %v", part, now, l.last[part])
	}
	l.last[part] = now
	l.mu.Unlock()
	return now
}

// add logs an action delivered on partition part, which must not run before
// notBefore: the instant it was sent plus the lookahead it crossed.
func (l *stormLog) add(part int, kind string, actor, step int, clk Clock, notBefore time.Duration) {
	now := l.observe(part, clk)
	if now < notBefore {
		l.t.Errorf("partition %d: %s a%d s%d ran at %v, before %v", part, kind, actor, step, now, notBefore)
	}
	l.mu.Lock()
	l.recs[part] = append(l.recs[part], stormRec{fmt.Sprintf("%s a%d s%d", kind, actor, step), now})
	l.mu.Unlock()
}

// stormLA builds the test lookahead matrix: partition 0 is the control
// partition (tiny outbound lookahead, large inbound), the rest are regions
// with millisecond-scale pairwise lookaheads.
func stormLA(n int) [][]time.Duration {
	la := make([][]time.Duration, n)
	for i := range la {
		la[i] = make([]time.Duration, n)
		for j := range la[i] {
			switch {
			case i == j:
			case i == 0:
				la[i][j] = time.Microsecond
			case j == 0:
				la[i][j] = 10 * time.Millisecond
			default:
				diff := i - j
				if diff < 0 {
					diff = -diff
				}
				la[i][j] = time.Duration(1+diff) * time.Millisecond
			}
		}
	}
	return la
}

// runStorm drives a seeded cross-partition timer/send storm: actors on
// every region partition schedule local timers and cross-partition
// deliveries from independent per-actor RNG streams. With hops it adds the
// effects whose timing is set by the lookahead — sends below the lookahead
// floor and synchronous RunOn round trips — which take different virtual
// time on worlds with different matrices, so the merge gate leaves them out.
// It returns the per-partition delivered order. Every run checks, free of
// golden values, that no partition's time runs backwards and that no
// delivery runs before its send instant plus the lookahead it crossed.
func runStorm(t *testing.T, seed int64, clks stormClocks, regions int, hops bool) [][]stormRec {
	t.Helper()
	const (
		actorsPerPart = 3
		steps         = 25
		startAt       = 50 * time.Millisecond
	)
	log := &stormLog{t: t, recs: make([][]stormRec, regions+1), last: make([]time.Duration, regions+1)}
	g := NewGroup(clks.ctl)
	start := clks.ctl.Now().Add(startAt)
	for pi := 1; pi <= regions; pi++ {
		for ai := 0; ai < actorsPerPart; ai++ {
			pi, ai := pi, ai
			clk := clks.parts[pi-1]
			g.GoOn(clk, func() {
				rng := rand.New(rand.NewSource(seed + int64(pi*100+ai)))
				// Align to an absolute start time so the (mode-dependent)
				// spawn latency cannot shift the storm's timeline.
				clk.Sleep(clk.Until(start))
				for s := 0; s < steps; s++ {
					// Unique sub-microsecond stamp keeps every scheduled
					// instant distinct, so the serialized reference order
					// is exactly time order.
					uniq := time.Duration(pi*100_000+ai*1_000+s) * time.Nanosecond
					d := 11*time.Millisecond + time.Duration(rng.Intn(7_000_000)) + uniq
					sent := log.observe(pi, clk)
					kinds := 4
					if hops {
						kinds = 6
					}
					switch rng.Intn(kinds) {
					case 0:
						clk.AfterFunc(d, func() { log.add(pi, "local", pi*100+ai, s, clk, sent+d) })
					case 1:
						dst := 1 + rng.Intn(regions)
						dclk := clks.parts[dst-1]
						ScheduleCross(clk, dclk, d, func() { log.add(dst, "cross", pi*100+ai, s, dclk, sent+d) })
					case 2:
						// A second cross flavor with a different delay
						// range, so merged streams overlap heavily.
						dst := 1 + rng.Intn(regions)
						dclk := clks.parts[dst-1]
						ScheduleCross(clk, dclk, d+20*time.Millisecond,
							func() { log.add(dst, "cross2", pi*100+ai, s, dclk, sent+d+20*time.Millisecond) })
					case 3:
						clk.Sleep(d / 4)
					case 4:
						// Asks for less than the link's lookahead: the
						// delivery must be held back to the floor.
						dst := 1 + rng.Intn(regions)
						dclk := clks.parts[dst-1]
						ScheduleCross(clk, dclk, uniq,
							func() { log.add(dst, "hop", pi*100+ai, s, dclk, sent+clks.lookahead(pi, dst)) })
					case 5:
						dst := 1 + rng.Intn(regions)
						dclk := clks.parts[dst-1]
						var ran time.Duration
						RunOn(clk, dclk, func() {
							log.add(dst, "call", pi*100+ai, s, dclk, sent+clks.lookahead(pi, dst))
							ran = dclk.Since(epoch)
						})
						if back := log.observe(pi, clk); back < ran+clks.lookahead(dst, pi) {
							t.Errorf("RunOn %d->%d returned at %v, callee ran at %v", pi, dst, back, ran)
						}
					}
					clk.Sleep(500*time.Microsecond + time.Duration(rng.Intn(2_000_000)))
				}
			})
		}
	}
	g.Wait()
	// Let stragglers (timers scheduled near the end) deliver.
	clks.ctl.Sleep(time.Second)
	return log.recs
}

func virtualStormClocks(regions int) (stormClocks, func()) {
	v := NewVirtual()
	clks := stormClocks{ctl: v}
	for i := 0; i < regions; i++ {
		clks.parts = append(clks.parts, v)
	}
	return clks, v.Shutdown
}

func worldStormClocks(t *testing.T, regions int) (stormClocks, func()) {
	t.Helper()
	names := []string{"ctl"}
	for i := 0; i < regions; i++ {
		names = append(names, fmt.Sprintf("r%d", i))
	}
	w, err := NewWorld(names, stormLA(regions+1))
	if err != nil {
		t.Fatal(err)
	}
	clks := stormClocks{ctl: w.Partition("ctl"), la: w.la}
	for i := 0; i < regions; i++ {
		clks.parts = append(clks.parts, w.Partition(fmt.Sprintf("r%d", i)))
	}
	return clks, w.Shutdown
}

// byInstant returns a copy of recs sorted by (instant, action): a canonical
// form of the multiset, and — the storm keeps every instant distinct — the
// one order a correct scheduler may deliver it in.
func byInstant(recs []stormRec) []stormRec {
	out := append([]stormRec(nil), recs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].at != out[j].at {
			return out[i].at < out[j].at
		}
		return out[i].what < out[j].what
	})
	return out
}

// compareStorms is the oracle over two runs of one storm, with no reference
// scheduler behind it: each destination's log must be in time order on both
// sides, and hold the same multiset of (action, instant) records.
func compareStorms(t *testing.T, wantName, gotName string, want, got [][]stormRec) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("partition count differs: %s=%d %s=%d", wantName, len(want), gotName, len(got))
	}
	inTimeOrder := func(name string, p int, recs []stormRec) {
		for i := 1; i < len(recs); i++ {
			if recs[i].at < recs[i-1].at {
				t.Errorf("partition %d under %s: delivery %d %v ran before delivery %d %v",
					p, name, i, recs[i], i-1, recs[i-1])
				return
			}
		}
	}
	for p := range want {
		inTimeOrder(wantName, p, want[p])
		inTimeOrder(gotName, p, got[p])
		if len(want[p]) != len(got[p]) {
			t.Errorf("partition %d: %d deliveries under %s, %d under %s",
				p, len(want[p]), wantName, len(got[p]), gotName)
			continue
		}
		w, g := byInstant(want[p]), byInstant(got[p])
		for i := range w {
			if w[i] != g[i] {
				t.Errorf("partition %d record %d by instant: %s=%v %s=%v", p, i, wantName, w[i], gotName, g[i])
				break
			}
		}
	}
}

// TestWorldMatchesSerializedReference is the merge-layer gate: a seeded
// cross-partition storm delivered by the parallel partitioned scheduler
// must land exactly as a one-partition world delivers it. Per destination,
// with every instant distinct, the right order is pure time order, so the
// gate is compareStorms' oracle rather than trust in either side — any
// merge bug shows up as a reordering or a record at the wrong instant.
func TestWorldMatchesSerializedReference(t *testing.T) {
	const regions = 4
	for _, seed := range []int64{1, 42, 1789} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			vc, vstop := virtualStormClocks(regions)
			ref := runStorm(t, seed, vc, regions, false)
			vstop()
			wc, wstop := worldStormClocks(t, regions)
			got := runStorm(t, seed, wc, regions, false)
			wstop()
			total := 0
			for _, rs := range ref {
				total += len(rs)
			}
			if total < 100 {
				t.Fatalf("storm too small to be meaningful: %d deliveries", total)
			}
			compareStorms(t, "one-partition", "world", ref, got)
		})
	}
}

// TestWorldMonotonicAndCausal runs the storm with its lookahead-bound hops
// on a partitioned world for the invariants runStorm checks as it goes: per
// partition Now never decreases across consecutive callbacks, every
// ScheduleCross delivery runs at or after its send instant plus la[src][dst],
// and RunOn returns at or after the instant its callee ran plus the lookahead
// back. At GOMAXPROCS 1 partitions interleave on one thread; at 4 they race.
func TestWorldMonotonicAndCausal(t *testing.T) {
	const regions = 4
	for _, procs := range []int{1, 4} {
		procs := procs
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			wc, stop := worldStormClocks(t, regions)
			defer stop()
			hops := 0
			for _, recs := range runStorm(t, 7, wc, regions, true) {
				for _, r := range recs {
					if strings.HasPrefix(r.what, "hop") || strings.HasPrefix(r.what, "call") {
						hops++
					}
				}
			}
			if hops < 50 {
				t.Fatalf("storm too small to be meaningful: %d lookahead-bound deliveries", hops)
			}
		})
	}
}

// TestWorldRunQueueOrder is TestVirtualRunQueueOrder across partitions: the
// control partition starts inline workers (StartOn) and goroutine workers
// (GoOn) on two region partitions, and each inline worker fills its
// partition's run queue with posts, a parked and a function Event waiter, a
// zero-delay timer and a post shipped to its peer. Every partition must run
// them in call/wait order — the order below, read off the rules: shipped
// starts land in send order and each one's consequences drain before the
// next lands; local timers fire after same-instant arrivals, and what a
// timer's body posts runs before the next timer fires; the peer's posts
// arrive one lookahead later — at GOMAXPROCS 1, where the partitions
// interleave on one thread, and at 4, where they race.
func TestWorldRunQueueOrder(t *testing.T) {
	const rounds = 3
	var want []string
	for r := 0; r < rounds; r++ {
		for _, s := range []string{"start", "post", "after-fire", "parked", "fn", "go"} {
			want = append(want, fmt.Sprintf("%s/%d", s, r))
		}
	}
	for r := 0; r < rounds; r++ {
		want = append(want, fmt.Sprintf("timer/%d", r), fmt.Sprintf("timer-post/%d", r))
	}
	for r := 0; r < rounds; r++ {
		want = append(want, fmt.Sprintf("from-peer/%d", r))
	}
	for _, procs := range []int{1, 4} {
		procs := procs
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			wc, stop := worldStormClocks(t, 2)
			defer stop()
			var mu sync.Mutex
			var logs [2][]string
			note := func(pi int, what string, r int) func() {
				return func() {
					mu.Lock()
					logs[pi] = append(logs[pi], fmt.Sprintf("%s/%d", what, r))
					mu.Unlock()
				}
			}
			g := NewGroup(wc.ctl)
			for r := 0; r < rounds; r++ {
				for pi := 0; pi < 2; pi++ {
					r, pi := r, pi
					clk, peer := wc.parts[pi], wc.parts[1-pi]
					g.StartOn(clk, func(done func()) {
						note(pi, "start", r)()
						q, ev := clk.NewQueue(), clk.NewEvent()
						clk.Go(func() { ev.Wait(); note(pi, "parked", r)() })
						q.Post(func() { ev.OnFire(note(pi, "fn", r)) }) // behind the parked waiter
						q.Post(note(pi, "post", r))
						clk.AfterFunc(0, func() {
							note(pi, "timer", r)()
							q.Post(note(pi, "timer-post", r))
						})
						ScheduleCross(clk, peer, 0, func() { peer.NewQueue().Post(note(1-pi, "from-peer", r)) })
						q.Post(ev.Fire)
						q.Post(note(pi, "after-fire", r))
						q.Post(done)
					})
					g.GoOn(clk, note(pi, "go", r))
				}
			}
			g.Wait()
			wc.ctl.Sleep(time.Second) // past the timers and the peer posts
			mu.Lock()
			defer mu.Unlock()
			for pi := range logs {
				if !reflect.DeepEqual(logs[pi], want) {
					t.Errorf("partition %d ran\n  %v\nwant\n  %v", pi, logs[pi], want)
				}
			}
		})
	}
}

// TestSleepCtxYieldCancelled is the regression test for a double grant: a
// zero-length SleepCtx whose context is cancelled while the yield is still
// queued used to put the same grant on the run queue twice, and the
// partition loop panicked closing its channel a second time.
func TestSleepCtxYieldCancelled(t *testing.T) {
	for _, regions := range []int{0, 1} {
		regions := regions
		t.Run(fmt.Sprintf("partitions%d", regions+1), func(t *testing.T) {
			for i := 0; i < 200; i++ {
				wc, stop := worldStormClocks(t, regions)
				ctx, cancel := context.WithCancel(context.Background())
				wc.ctl.Go(cancel)
				if err := wc.ctl.SleepCtx(ctx, 0); err != nil && err != context.Canceled {
					t.Fatalf("SleepCtx = %v", err)
				}
				wc.ctl.Sleep(time.Second)
				stop()
			}
		})
	}
}

// TestWorldGOMAXPROCSInvariance runs the same seeded storm on the
// partitioned scheduler at GOMAXPROCS=1 and GOMAXPROCS=NumCPU and requires
// bit-identical delivery logs: thread interleaving must never leak into the
// simulated order.
func TestWorldGOMAXPROCSInvariance(t *testing.T) {
	const regions = 4
	run := func(procs int) [][]stormRec {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		wc, stop := worldStormClocks(t, regions)
		defer stop()
		return runStorm(t, 7, wc, regions, false)
	}
	serial := run(1)
	parallel := run(runtime.NumCPU())
	compareStorms(t, "procs=1", fmt.Sprintf("procs=%d", runtime.NumCPU()), serial, parallel)
}

// TestWorldEventCrossPartition exercises the Event merge path: events homed
// on region partitions, fired there, awaited from the control partition —
// the pattern the determinism gates' drivers rely on. Two same-seed runs
// must observe identical wake times.
func TestWorldEventCrossPartition(t *testing.T) {
	run := func() []string {
		wc, stop := worldStormClocks(t, 3)
		defer stop()
		ctl := wc.ctl
		var out []string
		for i := 0; i < 12; i++ {
			clk := wc.parts[i%3]
			ev := clk.NewEvent()
			d := time.Duration(i+1) * 3 * time.Millisecond
			RunOn(ctl, clk, func() { clk.AfterFunc(d, ev.Fire) })
			if !ev.WaitTimeoutFrom(ctl, time.Minute) {
				t.Fatalf("event %d never fired", i)
			}
			out = append(out, fmt.Sprintf("ev%d@%d", i, ctl.Now().UnixNano()))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wake %d differs across same-seed runs: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestWorldGroupCountsInFlight checks that a Group counts workers on other
// partitions as observed at the home partition: Wait returns only after
// every GoOn worker's completion has shipped back.
func TestWorldGroupCountsInFlight(t *testing.T) {
	wc, stop := worldStormClocks(t, 2)
	defer stop()
	ctl := wc.ctl
	g := NewGroup(ctl)
	var finished atomic.Int32
	for i := 0; i < 4; i++ {
		clk := wc.parts[i%2]
		g.GoOn(clk, func() {
			clk.Sleep(5 * time.Millisecond)
			finished.Add(1)
		})
	}
	g.Wait()
	if n := finished.Load(); n != 4 {
		t.Fatalf("Wait returned with %d of 4 workers finished", n)
	}
}

// TestWorldShutdownReleasesSleepers is the shutdown contract with peers
// present (TestVirtualShutdownWakesSleepers checks it on one partition).
func TestWorldShutdownReleasesSleepers(t *testing.T) {
	wc, stop := worldStormClocks(t, 2)
	ctl := wc.ctl
	g := NewGroup(ctl)
	g.GoOn(wc.parts[0], func() { wc.parts[0].Sleep(time.Hour) })
	go func() {
		time.Sleep(10 * time.Millisecond) // let the sleeper park
		stop()
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

// TestDeliveryTimerRecycled: a ScheduleCross delivery has no handle, so the
// partition that pops its timer keeps it for the next delivery it sends. A
// chain of 10 000 deliveries — each body sending the next, within one
// partition and bouncing between two — must run every body once, at the
// right instant, on one timer. The -race pass of this package checks that
// the reuse is properly ordered.
func TestDeliveryTimerRecycled(t *testing.T) {
	const (
		hops = 10000
		step = 2 * time.Millisecond // the storm matrix's region-to-region lookahead
	)
	for _, regions := range []int{1, 2} {
		regions := regions
		t.Run(fmt.Sprintf("partitions%d", regions), func(t *testing.T) {
			wc, stop := worldStormClocks(t, regions)
			defer stop()
			parts := wc.parts
			var start time.Time
			ran := 0
			done := parts[0].NewEvent()
			var hop func()
			hop = func() {
				here := parts[ran%regions]
				ran++
				if got, want := here.Now().Sub(start), time.Duration(ran)*step; got != want {
					t.Errorf("delivery %d ran at +%v, want +%v", ran, got, want)
				}
				next := hop
				if ran == hops {
					next = done.Fire
				}
				ScheduleCross(here, parts[ran%regions], step, next)
			}
			g := NewGroup(wc.ctl)
			g.StartOn(parts[0], func(finished func()) {
				start = parts[0].Now()
				ScheduleCross(parts[0], parts[0], step, hop)
				done.OnFire(finished)
			})
			g.Wait()
			if ran != hops {
				t.Fatalf("%d of %d deliveries ran", ran, hops)
			}
			w := partitionOf(parts[0]).w
			w.mu.Lock()
			defer w.mu.Unlock()
			free := 0
			for _, p := range w.parts {
				free += len(p.free)
			}
			// One timer carried the chain; the Group's shipped start and
			// completion left one each.
			if free < 1 || free > 3 {
				t.Fatalf("%d spent delivery timers after %d deliveries, want the chain's one and the Group's two", free, hops)
			}
		})
	}
}
