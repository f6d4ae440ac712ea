package latency

import (
	"slices"
	"sync"
	"time"
)

// Recorder accumulates delay observations and answers distribution queries
// over a bounded window of the most recent samples. It is the predictor's
// view of "what does a message on this link cost right now".
//
// The window is a ring buffer that grows with the samples up to its bound;
// from then on new samples overwrite the oldest ones, so the recorder tracks
// non-stationary latencies (load spikes, reconfigurations) with bounded
// memory, and a recorder that sees few samples holds only those.
// All methods are safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	window  int             // bound on len(ring)
	ring    []time.Duration // the window, oldest at next once full
	next    int
	count   uint64
	dirty   bool
	sortedC []time.Duration // cached sorted copy of the window
}

// NewRecorder returns a Recorder keeping the most recent capacity samples.
// Capacity is clamped to at least 16.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{window: max(capacity, 16)}
}

// Observe records one delay sample.
func (r *Recorder) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) < r.window {
		r.ring = append(r.ring, d)
	} else {
		r.ring[r.next] = d
		r.next = (r.next + 1) % r.window
	}
	r.count++
	r.dirty = true
}

// Count returns the total number of samples ever observed.
func (r *Recorder) Count() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// sortedLocked refreshes and returns the cached sorted window.
// Callers must hold r.mu.
func (r *Recorder) sortedLocked() []time.Duration {
	if r.dirty || r.sortedC == nil {
		r.sortedC = append(r.sortedC[:0], r.ring...)
		slices.Sort(r.sortedC)
		r.dirty = false
	}
	return r.sortedC
}

// CDF returns the fraction of windowed samples <= d. With no samples it
// returns 0.
func (r *Recorder) CDF(d time.Duration) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sortedLocked()
	if len(s) == 0 {
		return 0
	}
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] <= d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return float64(lo) / float64(len(s))
}

// Quantile returns the p-quantile over the window; ok=false with no samples.
func (r *Recorder) Quantile(p float64) (time.Duration, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sortedLocked()
	if len(s) == 0 {
		return 0, false
	}
	if p <= 0 {
		return s[0], true
	}
	if p >= 1 {
		return s[len(s)-1], true
	}
	idx := int(p * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx], true
}

// AppendWindow appends the window's samples to dst in ring order and returns
// the extended slice: a snapshot to draw many samples from without taking the
// lock per draw.
func (r *Recorder) AppendWindow(dst []time.Duration) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(dst, r.ring...)
}
