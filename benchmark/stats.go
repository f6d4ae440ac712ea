package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks. sorted must be ascending; an empty
// slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns vals in ascending order without touching the input.
func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// median returns the median of vals (0 for none).
func median(vals []float64) float64 { return percentile(sortedCopy(vals), 50) }

// quartileSpread is the run-to-run steadiness measure the benchmark contract
// uses: the distance between the first and third quartile as a share of the
// median, with the quartiles computed as Python's
// statistics.quantiles(values, n=4) does (exclusive method).
func quartileSpread(vals []float64) float64 {
	s := sortedCopy(vals)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	med := percentile(s, 50)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// sample is one completed operation: when it ended and how long it took.
type sample struct {
	end time.Time
	dur time.Duration
}

// windowStats is what a timed closed-loop run reduces to.
type windowStats struct {
	// perWindow is the operation count that ended inside each window.
	perWindow []int
	// rate is the median window's operations per second.
	rate float64
	// ms holds every in-window latency in milliseconds, ascending.
	ms []float64
}

// reduceWindows buckets samples into n back-to-back windows of width w
// starting at start; samples ending before start (warm-up) or after the last
// window are dropped. Throughput is the median window so one disturbed
// window does not set the result; latencies pool every window.
func reduceWindows(samples []sample, start time.Time, w time.Duration, n int) windowStats {
	ws := windowStats{perWindow: make([]int, n)}
	for _, s := range samples {
		off := s.end.Sub(start)
		if off < 0 {
			continue
		}
		i := int(off / w)
		if i >= n {
			continue
		}
		ws.perWindow[i]++
		ws.ms = append(ws.ms, float64(s.dur)/float64(time.Millisecond))
	}
	sort.Float64s(ws.ms)
	rates := make([]float64, n)
	for i, c := range ws.perWindow {
		rates[i] = float64(c) / w.Seconds()
	}
	ws.rate = median(rates)
	return ws
}
