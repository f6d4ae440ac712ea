package vclock

import (
	"math/bits"
	"time"
)

// This file implements the hierarchical timer wheel that backs the Virtual
// clock. The binary heap it replaced cost O(log n) per insert/remove; with
// open-loop traffic the scheduler carries hundreds of thousands of
// outstanding deadlines (one per in-flight virtual user plus one per pending
// protocol timeout), and the heap's pointer-chasing sift dominated the hot
// path. The wheel makes insert and cancel O(1) and pop amortized O(1), while
// reproducing the heap's fire order *exactly* — the same (when, seq) total
// order — which is what lets the determinism gates stay bit-identical across
// the swap.
//
// Shape: wheelLevels levels of wheelSlots slots each. Level ℓ's slot width
// is 1<<(wheelShift0 + ℓ*wheelBits) nanoseconds, so level 0 resolves
// ~1.024µs and the top level spans years; deadlines beyond the last level
// land in a plain overflow heap (never in practice — an emulated run spans
// minutes). Slots are unsorted slices (insert is an append) until a
// level-0 slot becomes the earliest bin, and each level keeps a one-word
// occupancy bitmap so "first non-empty slot at or after the cursor" is two
// bit ops.
//
// cur is the wheel's clock: the deadline of the last pop (pops come out in
// nondecreasing key order, and the scheduler only inserts at or after its
// now >= cur, so every live entry satisfies when >= cur at all times).
// Placement guarantees a live entry's slot, read circularly from the
// cursor's slot at its level, is at distance bin(when)-bin(cur) in [0,63],
// where bin(x) = x >> levelShift; cur only grows, so the distance only
// shrinks. Per level, the first occupied slot scanning circularly from the
// cursor therefore holds the level's earliest bin.
//
// findMin resolves the global minimum by cascading: take the earliest
// first-bin across levels; while it belongs to a coarse level, advance cur
// to that bin's start (safe: no live deadline precedes it) and spill the
// slot's entries into finer levels — each lands at least one level down,
// so an entry moves at most wheelLevels-1 times in its life. Once the
// earliest bin is a level-0 slot, that slot contains every live entry with
// when < binstart + 1.024µs. It is then exposed: heap-ordered once under the
// full (when, seq) key, and kept a heap — pops take its top, late arrivals
// into the bin sift in — until it empties, so k timers inside one bin cost
// O(k log k), not a rescan per pop. Its top against the overflow heap's top
// yields exactly the replaced heap's pop order. While the exposed slot is
// non-empty cur stays inside its bin, so it remains the earliest bin and
// every deadline at or before cur lands in it. Correctness of the spill
// placement: after cur advances to the bin start, every entry in the slot
// has when - cur < slot width, which places it at a strictly finer level
// with cursor distance <= 63.
//
// Cancellation is lazy: Stop/Reset bump the timer's generation and drop
// the live count; the stale entry stays behind and is discarded when it
// reaches the top of the exposed slot or of the overflow heap.

const (
	wheelShift0 = 10 // level-0 slot width: 1.024µs of virtual time
	wheelBits   = 6  // slots per level = 1<<wheelBits
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 8
)

// wheelNode is the per-timer state embedded in wtimer. gen
// invalidates stale wheel entries after a cancel or re-key; queued reports
// whether the timer is currently scheduled.
type wheelNode struct {
	gen    uint32
	queued bool
}

// wheelTimer is the payload constraint: a pointer type exposing its node.
type wheelTimer interface {
	comparable
	wheelState() *wheelNode
}

// wentry is one scheduled deadline, stored by value inside slots.
// (when, seq) is the full scheduling key. node caches t.wheelState() so
// staleness checks are a direct load instead of a generic-dictionary call.
type wentry[T wheelTimer] struct {
	when time.Duration
	seq  uint64
	gen  uint32
	node *wheelNode
	t    T
}

// stale reports whether the entry was cancelled or re-keyed after insert.
func (e *wentry[T]) stale() bool {
	return !e.node.queued || e.node.gen != e.gen
}

// entryLess is the total order shared with the replaced heap.
func entryLess[T wheelTimer](x, y *wentry[T]) bool {
	if x.when != y.when {
		return x.when < y.when
	}
	return x.seq < y.seq
}

// bucket holds entries. Wheel slots use it as an unsorted slice; the
// overflow and the exposed level-0 slot use hinit/hpush/hpop to keep it
// heap-ordered by entryLess.
type bucket[T wheelTimer] []wentry[T]

// hinit heap-orders an unsorted bucket in place.
func (h bucket[T]) hinit() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// siftDown restores the heap order below i.
func (h bucket[T]) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return
		}
		c := l
		if r < n && entryLess(&h[r], &h[l]) {
			c = r
		}
		if !entryLess(&h[c], &h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (h *bucket[T]) hpush(e wentry[T]) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(&(*h)[i], &(*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *bucket[T]) hpop() wentry[T] {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	var zero wentry[T]
	old[n] = zero // release the payload pointer
	old = old[:n]
	*h = old
	old.siftDown(0)
	return top
}

// wheelLevel is one ring: an occupancy bitmap plus its slots.
type wheelLevel[T wheelTimer] struct {
	occupied uint64
	slots    [wheelSlots]bucket[T]
}

// wheel is the hierarchical timer wheel. Zero value is ready to use. All
// methods require external synchronization (the scheduler mutex).
type wheel[T wheelTimer] struct {
	cur    time.Duration // deadline of the last pop; floor of all live entries
	live   int           // scheduled and not cancelled
	stales int           // cancelled entries not yet physically dropped
	levels [wheelLevels]wheelLevel[T]
	over   bucket[T] // deadlines beyond the top level's reach (heap-ordered)

	// The exposed slot: the level-0 slot findMin last resolved as the
	// earliest bin, heap-ordered from then until it empties.
	exposed     bool
	exposedSlot int
}

// place computes the (level, slot) for a deadline. Deadlines at or before
// cur share the cursor's level-0 slot (the scan starts there, and the
// full-key order of the exposed slot keeps them first). ok=false means
// overflow.
func (w *wheel[T]) place(when time.Duration) (int, int, bool) {
	k := when
	if k < w.cur {
		k = w.cur
	}
	delta := uint64(k-w.cur) >> wheelShift0
	level := 0
	if delta != 0 {
		level = (bits.Len64(delta) - 1) / wheelBits
	}
	if level >= wheelLevels {
		return 0, 0, false
	}
	shift := uint(wheelShift0 + level*wheelBits)
	// The raw span check can still leave the entry exactly one wrap ahead of
	// the cursor when cur is not slot-aligned; bump one level so the slot,
	// read circularly from the cursor, is unambiguous.
	if (uint64(k)>>shift)-(uint64(w.cur)>>shift) >= wheelSlots {
		level++
		if level >= wheelLevels {
			return 0, 0, false
		}
		shift += wheelBits
	}
	return level, int((uint64(k) >> shift) & wheelMask), true
}

// insert files e at its (level, slot) or into the overflow heap.
func (w *wheel[T]) insert(e wentry[T]) {
	level, slot, ok := w.place(e.when)
	if !ok {
		w.over.hpush(e)
		return
	}
	lv := &w.levels[level]
	if level == 0 && w.exposed && slot == w.exposedSlot {
		lv.slots[slot].hpush(e)
		return
	}
	lv.slots[slot] = append(lv.slots[slot], e)
	lv.occupied |= 1 << uint(slot)
}

// schedule inserts t with deadline when and tie-break key seq. The timer's
// generation is advanced so any previous entry for t goes stale.
func (w *wheel[T]) schedule(when time.Duration, seq uint64, t T) {
	n := t.wheelState()
	n.gen++
	n.queued = true
	w.live++
	w.insert(wentry[T]{when: when, seq: seq, gen: n.gen, node: n, t: t})
}

// cancel lazily removes t. Reports whether t was scheduled.
func (w *wheel[T]) cancel(t T) bool {
	n := t.wheelState()
	if !n.queued {
		return false
	}
	n.queued = false
	n.gen++
	w.live--
	w.stales++
	return true
}

// spill redistributes one slot's entries into finer levels. The caller has
// advanced cur so that the slot's bin start is at or behind cur; every
// entry then satisfies when - cur < slot width and lands at least one
// level down. Stale entries ride along unexamined — touching their timers
// here would cost a cache miss per entry, and purgeTop discards them when
// they surface.
func (w *wheel[T]) spill(level, slot int) {
	lv := &w.levels[level]
	h := lv.slots[slot]
	lv.slots[slot] = h[:0]
	lv.occupied &^= 1 << uint(slot)
	var zero wentry[T]
	for i := range h {
		w.insert(h[i])
		h[i] = zero // release payload pointers under the retained backing array
	}
}

// purgeTop drops stale entries off the top of a heap-ordered bucket (skipped
// entirely while no cancellation is outstanding — the common case pays no
// timer dereference), returning the live top or nil.
func (w *wheel[T]) purgeTop(h *bucket[T]) *wentry[T] {
	for len(*h) > 0 {
		if top := &(*h)[0]; w.stales == 0 || !top.stale() {
			return top
		}
		h.hpop()
		w.stales--
	}
	return nil
}

// findMin cascades until the earliest live entry is the top of the exposed
// level-0 slot or, with fromOver, of the overflow heap.
func (w *wheel[T]) findMin() (fromOver, ok bool) {
	for {
		// Earliest occupied bin across levels, preferring the coarsest
		// level on ties: a coarse slot sharing a fine bin's start may hide
		// earlier deadlines inside its wider span, so it must spill first.
		bestLevel, bestSlot := -1, 0
		var bestStart time.Duration
		for level := 0; level < wheelLevels; level++ {
			lv := &w.levels[level]
			if lv.occupied == 0 {
				continue
			}
			shift := uint(wheelShift0 + level*wheelBits)
			cursor := uint64(w.cur) >> shift
			d := bits.TrailingZeros64(bits.RotateLeft64(lv.occupied, -int(cursor&wheelMask)))
			start := time.Duration((cursor + uint64(d)) << shift)
			if bestLevel < 0 || start < bestStart || start == bestStart {
				bestLevel = level
				bestSlot = int((cursor + uint64(d)) & wheelMask)
				bestStart = start
			}
		}
		if bestLevel < 0 {
			return true, w.purgeTop(&w.over) != nil
		}
		// No live deadline precedes the earliest occupied bin, so jumping
		// cur to its start preserves every placement invariant.
		if bestStart > w.cur {
			w.cur = bestStart
		}
		if bestLevel > 0 {
			w.spill(bestLevel, bestSlot)
			continue
		}
		// Level-0 slot: heap-order it the first time it is the earliest bin.
		h := &w.levels[0].slots[bestSlot]
		if !w.exposed || w.exposedSlot != bestSlot {
			h.hinit()
			w.exposed, w.exposedSlot = true, bestSlot
		}
		top := w.purgeTop(h)
		if top == nil {
			w.levels[0].occupied &^= 1 << uint(bestSlot)
			w.exposed = false
			continue
		}
		// The slot holds every live wheel entry with when < binstart+width;
		// only the overflow heap can still undercut it.
		if ov := w.purgeTop(&w.over); ov != nil && entryLess(ov, top) {
			return true, true
		}
		return false, true
	}
}

// minBucket returns the heap whose top findMin resolved as the minimum.
func (w *wheel[T]) minBucket(fromOver bool) *bucket[T] {
	if fromOver {
		return &w.over
	}
	return &w.levels[0].slots[w.exposedSlot]
}

// popMin removes and returns the earliest scheduled timer, advancing cur to
// its deadline.
func (w *wheel[T]) popMin() (T, bool) {
	fromOver, ok := w.findMin()
	if !ok {
		var zero T
		return zero, false
	}
	h := w.minBucket(fromOver)
	e := h.hpop()
	if !fromOver && len(*h) == 0 {
		w.levels[0].occupied &^= 1 << uint(w.exposedSlot)
		w.exposed = false
	}
	e.node.queued = false
	w.live--
	if e.when > w.cur {
		w.cur = e.when
	}
	return e.t, true
}

// forEach visits every live timer (order unspecified). The callback must
// not mutate the wheel.
func (w *wheel[T]) forEach(f func(T)) {
	visit := func(h bucket[T]) {
		for i := range h {
			if !h[i].stale() {
				f(h[i].t)
			}
		}
	}
	for level := range w.levels {
		for slot := range w.levels[level].slots {
			visit(w.levels[level].slots[slot])
		}
	}
	visit(w.over)
}

// reset discards every entry (shutdown drain). cur is preserved.
func (w *wheel[T]) reset() {
	for level := range w.levels {
		w.levels[level].occupied = 0
		for slot := range w.levels[level].slots {
			w.levels[level].slots[slot] = nil
		}
	}
	w.over = nil
	w.live = 0
	w.stales = 0
	w.exposed = false
}
