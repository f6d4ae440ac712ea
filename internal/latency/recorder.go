package latency

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Recorder accumulates delay observations and answers distribution queries
// over a bounded window of the most recent samples. It is the predictor's
// view of "what does a message on this link cost right now".
//
// The window is a ring buffer: once capacity is reached, new samples
// overwrite the oldest ones, so the recorder tracks non-stationary
// latencies (load spikes, reconfigurations) with bounded memory.
// All methods are safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	ring    []time.Duration
	next    int
	filled  bool
	count   uint64
	dirty   bool
	sortedC []time.Duration // cached sorted copy of the window
}

// NewRecorder returns a Recorder keeping the most recent capacity samples.
// Capacity is clamped to at least 16.
func NewRecorder(capacity int) *Recorder {
	if capacity < 16 {
		capacity = 16
	}
	return &Recorder{ring: make([]time.Duration, 0, capacity)}
}

// Observe records one delay sample.
func (r *Recorder) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, d)
	} else {
		r.ring[r.next] = d
		r.next = (r.next + 1) % cap(r.ring)
		r.filled = true
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
		// insertion-free: use sort from the stdlib via a copy
		sortDurations(r.sortedC)
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

// Sample draws a random sample from the window, or ok=false when empty.
func (r *Recorder) Sample(rng *rand.Rand) (time.Duration, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) == 0 {
		return 0, false
	}
	return r.ring[rng.Intn(len(r.ring))], true
}

// sortDurations sorts in place; split out to keep sortedLocked readable.
func sortDurations(s []time.Duration) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
