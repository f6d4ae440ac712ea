package vclock

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestTimerHeapMatchesSortedReference drives the timer heap through seeded
// random sequences of schedules, Stops, Resets, re-arms of spent timers and
// pops, against a reference that keeps the live timers sorted by (when,
// seq). Deadlines fall on a coarse grid, so most pops break a same-instant
// tie; Stops and Resets hit the root, a middle entry, the last slot or a
// random one. After every step the heap must hold exactly the reference's
// timers, each at the slot it records, in heap order; every pop must return
// the reference's first timer.
func TestTimerHeapMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			h     timerHeap
			live  []*wtimer // the reference: queued timers in fire order
			spent []*wtimer // popped or stopped, free to re-arm
			now   time.Duration
			seq   uint64
		)
		arm := func(tm *wtimer) {
			tm.when = now + time.Duration(rng.Intn(8))*time.Millisecond
			tm.seq = seq
			seq++
			h.push(tm)
			// The reference spells the order out rather than trusting before.
			i, _ := slices.BinarySearchFunc(live, tm, func(a, b *wtimer) int {
				return cmp.Or(cmp.Compare(a.when, b.when), cmp.Compare(a.seq, b.seq))
			})
			live = slices.Insert(live, i, tm)
		}
		// victim picks a queued timer: the root, a middle entry, the last
		// slot, or any.
		victim := func() *wtimer {
			switch rng.Intn(4) {
			case 0:
				return h[0]
			case 1:
				return h[len(h)/2]
			case 2:
				return h[len(h)-1]
			}
			return h[rng.Intn(len(h))]
		}
		stop := func(tm *wtimer) {
			if !h.remove(tm) {
				t.Fatalf("seed %d: remove of a queued timer reported false", seed)
			}
			if h.remove(tm) {
				t.Fatalf("seed %d: a timer was removed twice", seed)
			}
			live = slices.DeleteFunc(live, func(x *wtimer) bool { return x == tm })
		}
		pop := func(step int) {
			got, want := h.pop(), live[0]
			live = live[1:]
			if got != want {
				t.Fatalf("seed %d step %d: popped (%v, %d), reference has (%v, %d) first",
					seed, step, got.when, got.seq, want.when, want.seq)
			}
			if h.queued(got) || h.remove(got) {
				t.Fatalf("seed %d step %d: a popped timer is still queued", seed, step)
			}
			now = got.when
			spent = append(spent, got)
		}

		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				arm(&wtimer{})
			case op < 5 && len(spent) > 0:
				j := rng.Intn(len(spent))
				tm := spent[j]
				spent = slices.Delete(spent, j, j+1)
				arm(tm)
			case op < 7 && len(h) > 0:
				tm := victim()
				stop(tm)
				spent = append(spent, tm)
			case op < 8 && len(h) > 0:
				tm := victim()
				stop(tm)
				arm(tm)
			case len(h) > 0:
				pop(step)
			}
			checkTimerHeap(t, h, live)
		}
		for len(h) > 0 {
			pop(-1)
		}
		if len(live) != 0 {
			t.Fatalf("seed %d: heap drained with %d reference timers left", seed, len(live))
		}
	}
}

// checkTimerHeap fails t unless h holds exactly the timers of live, each at
// the slot it records, and no timer fires ahead of its parent.
func checkTimerHeap(t *testing.T, h timerHeap, live []*wtimer) {
	t.Helper()
	if len(h) != len(live) {
		t.Fatalf("heap holds %d timers, reference %d", len(h), len(live))
	}
	for i, tm := range h {
		if tm.index != i {
			t.Fatalf("timer in slot %d records slot %d", i, tm.index)
		}
		if i > 0 && tm.before(h[(i-1)/2]) {
			t.Fatalf("timer in slot %d fires ahead of its parent", i)
		}
	}
	for _, tm := range live {
		if !h.queued(tm) {
			t.Fatalf("reference timer (%v, %d) is not in the heap", tm.when, tm.seq)
		}
	}
}
