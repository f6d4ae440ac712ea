package vclock

// timerHeap is the Virtual clock's timer queue: a binary min-heap of timers
// ordered by (when, seq). seq is the clock's arm counter, so the order is
// total — timers due at the same instant pop in the order they were armed —
// and the pop sequence, with it every event order of a run, is a pure
// function of the schedule.
//
// Each timer records its slot in the heap, so Stop and Reset remove it on
// the spot in O(log n): the heap never holds a cancelled timer. Every method
// requires the clock's mutex.
type timerHeap []*wtimer

// before reports whether t fires ahead of u.
func (t *wtimer) before(u *wtimer) bool {
	if t.when != u.when {
		return t.when < u.when
	}
	return t.seq < u.seq
}

// queued reports whether t is in the heap. A timer outside it may carry a
// stale index, which then points past the end or at another timer.
func (h timerHeap) queued(t *wtimer) bool {
	return t.index < len(h) && h[t.index] == t
}

// push adds t, keyed by its when and seq.
func (h *timerHeap) push(t *wtimer) {
	*h = append(*h, t)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest timer. The heap must be non-empty.
func (h *timerHeap) pop() *wtimer { return h.removeAt(0) }

// remove takes t out of the heap, reporting whether it was there.
func (h *timerHeap) remove(t *wtimer) bool {
	if !h.queued(t) {
		return false
	}
	h.removeAt(t.index)
	return true
}

// removeAt removes the timer in slot i: the last timer fills the hole and
// sifts whichever way restores the order.
func (h *timerHeap) removeAt(i int) *wtimer {
	old := *h
	t, n := old[i], len(old)-1
	last := old[n]
	old[n] = nil // the backing array must not keep a spent timer alive
	*h = old[:n]
	if i < n {
		old[i] = last
		if h.down(i) == i {
			h.up(i)
		}
	}
	return t
}

// up moves the timer in slot i toward the root until its parent fires
// first, and records every moved timer's new slot.
func (h timerHeap) up(i int) {
	t := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !t.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = t
	t.index = i
}

// down moves the timer in slot i toward the leaves until both children fire
// after it, and returns the slot where it stopped.
func (h timerHeap) down(i int) int {
	t, n := h[i], len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(t) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = t
	t.index = i
	return i
}
