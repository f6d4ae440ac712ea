package vclock

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// testTimer is a minimal wheel payload for the data-structure tests.
type testTimer struct {
	id   int
	when time.Duration
	seq  uint64
	node wheelNode
}

func (t *testTimer) wheelState() *wheelNode { return &t.node }

// refHeap is the binary heap the wheel replaced, kept here as the reference
// implementation for the equivalence test and the arrivals benchmark. Keys
// are the same (when, seq) total order.
type refHeap []*testTimer

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*testTimer)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// popLiveRef pops the reference heap down to its next live entry.
func popLiveRef(h *refHeap, cancelled map[int]bool) *testTimer {
	for h.Len() > 0 {
		t := heap.Pop(h).(*testTimer)
		if !cancelled[t.id] {
			return t
		}
	}
	return nil
}

// peekWheel reports the wheel's earliest live timer without removing it.
func peekWheel(w *wheel[*testTimer]) (*testTimer, bool) {
	fromOver, ok := w.findMin()
	if !ok {
		return nil, false
	}
	return (*w.minBucket(fromOver))[0].t, true
}

// peekLiveRef purges cancelled tops and peeks the next live entry.
func peekLiveRef(h *refHeap, cancelled map[int]bool) *testTimer {
	for h.Len() > 0 {
		if t := (*h)[0]; !cancelled[t.id] {
			return t
		}
		heap.Pop(h)
	}
	return nil
}

// TestWheelHeapEquivalence drives the timer wheel and the reference binary
// heap through one seeded schedule of inserts, cancels, peeks, and pops —
// spanning every wheel level, deadline ties, and the overflow heap — and
// requires identical fire order. This is the scheduler-determinism argument
// in miniature: the wheel must reproduce the heap's (when, seq) total order
// exactly, or same-seed runs would diverge across the swap.
func TestWheelHeapEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var w wheel[*testTimer]
	var ref refHeap
	cancelled := make(map[int]bool)
	var live []*testTimer
	var seq uint64
	nextID := 0
	now := time.Duration(0)

	// Deltas cross level boundaries: sub-slot, level 0..4, and beyond the
	// top level (overflow).
	deltas := []time.Duration{
		0, 100 * time.Nanosecond, time.Microsecond, 50 * time.Microsecond,
		time.Millisecond, 80 * time.Millisecond, time.Second, time.Minute,
		3 * time.Hour, 24 * 400 * time.Hour * 100, // ~110 years: overflow
	}

	insert := func() {
		d := deltas[rng.Intn(len(deltas))]
		// Quantize some deadlines so ties exercise the seq order.
		if rng.Intn(3) == 0 {
			d = d.Round(time.Millisecond)
		}
		tt := &testTimer{id: nextID, when: now + d, seq: seq}
		nextID++
		seq++
		w.schedule(tt.when, tt.seq, tt)
		heap.Push(&ref, tt)
		live = append(live, tt)
	}

	for i := 0; i < 20000; i++ {
		switch op := rng.Intn(10); {
		case op < 5:
			insert()
		case op < 7 && len(live) > 0:
			// Cancel a random live timer in both structures.
			j := rng.Intn(len(live))
			tt := live[j]
			if !w.cancel(tt) {
				t.Fatalf("cancel(%d): wheel says not scheduled", tt.id)
			}
			cancelled[tt.id] = true
			live = append(live[:j], live[j+1:]...)
		case op < 8:
			// Peek must agree with the purged reference top.
			wt, ok := peekWheel(&w)
			rt := peekLiveRef(&ref, cancelled)
			if (rt != nil) != ok {
				t.Fatalf("peek mismatch: wheel ok=%v ref=%v", ok, rt != nil)
			}
			if ok && wt != rt {
				t.Fatalf("peek mismatch: wheel id=%d@%v ref id=%d@%v", wt.id, wt.when, rt.id, rt.when)
			}
		default:
			wt, ok := w.popMin()
			rt := popLiveRef(&ref, cancelled)
			if (rt != nil) != ok {
				t.Fatalf("pop mismatch at step %d: wheel ok=%v ref=%v", i, ok, rt != nil)
			}
			if !ok {
				continue
			}
			if wt != rt {
				t.Fatalf("pop order diverged at step %d: wheel id=%d@%v ref id=%d@%v",
					i, wt.id, wt.when, rt.id, rt.when)
			}
			if wt.when > now {
				now = wt.when
			}
			for j, lt := range live {
				if lt == wt {
					live = append(live[:j], live[j+1:]...)
					break
				}
			}
		}
		if w.live != len(live) {
			t.Fatalf("live count drifted: wheel=%d want %d", w.live, len(live))
		}
	}

	// Drain both completely: the tail order must match too.
	for {
		wt, ok := w.popMin()
		rt := popLiveRef(&ref, cancelled)
		if (rt != nil) != ok {
			t.Fatalf("drain mismatch: wheel ok=%v ref=%v", ok, rt != nil)
		}
		if !ok {
			break
		}
		if wt != rt {
			t.Fatalf("drain order diverged: wheel id=%d ref id=%d", wt.id, rt.id)
		}
	}
}

// TestWheelForEachVisitsLive checks forEach sees exactly the live timers.
func TestWheelForEachVisitsLive(t *testing.T) {
	var w wheel[*testTimer]
	var all []*testTimer
	for i := 0; i < 100; i++ {
		tt := &testTimer{id: i, when: time.Duration(i) * time.Millisecond, seq: uint64(i)}
		w.schedule(tt.when, tt.seq, tt)
		all = append(all, tt)
	}
	for i := 0; i < 100; i += 2 {
		w.cancel(all[i])
	}
	seen := make(map[int]bool)
	w.forEach(func(tt *testTimer) { seen[tt.id] = true })
	if len(seen) != 50 {
		t.Fatalf("forEach visited %d timers, want 50", len(seen))
	}
	for id := range seen {
		if id%2 == 0 {
			t.Fatalf("forEach visited cancelled timer %d", id)
		}
	}
}

// BenchmarkOpenLoopArrivals measures the scheduler data structure under the
// open-loop steady state: a large standing population of deadlines with one
// pop + one insert per arrival. This is the access pattern of a million
// virtual users with per-user timeouts. The wheel is expected to hold a
// large constant-factor advantage over the binary heap at 100k+ outstanding
// timers (O(1) vs O(log n) with cold cache lines on every sift).
func BenchmarkOpenLoopArrivals(b *testing.B) {
	const outstanding = 1_000_000
	newTimers := func(rng *rand.Rand) []*testTimer {
		ts := make([]*testTimer, outstanding)
		for i := range ts {
			ts[i] = &testTimer{
				id:   i,
				when: time.Duration(rng.Int63n(int64(10 * time.Second))),
				seq:  uint64(i),
			}
		}
		return ts
	}

	b.Run("wheel", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		var w wheel[*testTimer]
		for _, tt := range newTimers(rng) {
			w.schedule(tt.when, tt.seq, tt)
		}
		var seq uint64 = outstanding
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tt, _ := w.popMin()
			tt.when = w.cur + time.Duration(rng.Int63n(int64(10*time.Second)))
			tt.seq = seq
			seq++
			w.schedule(tt.when, tt.seq, tt)
		}
	})

	b.Run("heap", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		var h refHeap
		now := time.Duration(0)
		for _, tt := range newTimers(rng) {
			heap.Push(&h, tt)
		}
		var seq uint64 = outstanding
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tt := heap.Pop(&h).(*testTimer)
			if tt.when > now {
				now = tt.when
			}
			tt.when = now + time.Duration(rng.Int63n(int64(10*time.Second)))
			tt.seq = seq
			seq++
			heap.Push(&h, tt)
		}
	})
}

// TestSameInstantTimersScaleLinearly: k timers sharing one deadline land in
// one level-0 slot. Popping them used to rescan the slot for its minimum
// every time — O(k²), 17× the per-timer cost at 50 000 timers that it was at
// 2 000. With the slot heap-ordered when it is exposed the cost per timer
// grows with log k only; 4× leaves room for cache effects and a noisy host.
func TestSameInstantTimersScaleLinearly(t *testing.T) {
	perTimer := func(k int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for try := 0; try < 3; try++ {
			v := NewVirtual()
			fired := 0
			for i := 0; i < k; i++ {
				v.AfterFunc(time.Millisecond, func() { fired++ })
			}
			begin := time.Now()
			v.Sleep(2 * time.Millisecond)
			took := time.Since(begin)
			v.Shutdown()
			if fired != k {
				t.Fatalf("%d of %d same-deadline timers fired", fired, k)
			}
			best = min(best, took/time.Duration(k))
		}
		return best
	}
	small, large := perTimer(2000), perTimer(50000)
	t.Logf("per timer: %v at 2 000, %v at 50 000", small, large)
	if large > 4*small {
		t.Fatalf("per-timer cost %v at 50 000 same-deadline timers vs %v at 2 000: more than 4x", large, small)
	}
}
