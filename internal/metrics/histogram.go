// Package metrics provides the measurement primitives used by the PLANET
// experiment harness: the one bucketed histogram with quantile queries
// (latencies, and the admission controller's likelihoods), simple
// counters, and calibration (reliability) tables for the commit-likelihood
// predictor.
//
// Everything here is safe for concurrent use unless documented otherwise,
// because workload drivers record from many goroutines.
package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Histogram records duration samples with logarithmically spaced buckets,
// trading a bounded relative error (~5%) for O(1) recording and constant
// memory. It keeps exact min/max and sum for means. Values that are not
// durations (a likelihood) go through ObserveFloat and QuantileFloat in base
// units at the same nano-unit resolution: value v lands where v seconds do.
//
// Recording is lock-free and allocation-free: buckets, count, and sum are
// atomics, and min/max are maintained with CAS loops that early-exit once
// the extremes settle, so concurrent workload drivers never serialize on a
// histogram mutex. The sum is an integer nanosecond total — a single
// fetch-and-add, exact, and commutative, so the mean is independent of the
// real-time order concurrent recorders land in. Readers take racy-but-
// monotonic snapshots, which is all reporting needs.
type Histogram struct {
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumNS   atomic.Int64 // running sum in ns (exact: ~292y of headroom)
	minNS   atomic.Int64 // smallest sample in ns; math.MaxInt64 when empty
	maxNS   atomic.Int64 // largest sample in ns
}

// bucketGrowth is the per-bucket multiplicative width. 1.05 bounds the
// relative quantile error at about 5%, plenty for latency reporting.
const bucketGrowth = 1.05

// histBase is the lower edge of bucket 0 (durations below it land in
// bucket 0): 1 microsecond.
const histBase = float64(time.Microsecond)

// numBuckets covers 1µs..~ (1.05^512)µs ≈ 7e10µs ≈ 19h, far beyond any
// latency this system produces.
const numBuckets = 512

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{buckets: make([]atomic.Uint64, numBuckets)}
	h.minNS.Store(math.MaxInt64)
	return h
}

// bucketFor maps a duration to a bucket index.
func bucketFor(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	v := float64(d) / histBase
	if v <= 1 {
		return 0
	}
	i := int(math.Log(v) / math.Log(bucketGrowth))
	if i >= numBuckets {
		i = numBuckets - 1
	}
	return i
}

// bucketMid returns a representative duration for a bucket (geometric mean
// of its edges).
func bucketMid(i int) time.Duration {
	lo := histBase * math.Pow(bucketGrowth, float64(i))
	return time.Duration(lo * math.Sqrt(bucketGrowth))
}

// Observe records one sample. Lock-free and allocation-free.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketFor(d)].Add(1)
	ns := int64(d)
	for {
		cur := h.minNS.Load()
		if ns >= cur || h.minNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.sumNS.Add(ns)
	h.count.Add(1)
}

// ObserveFloat records a value in base units, rounded to 1e-9.
func (h *Histogram) ObserveFloat(v float64) {
	h.Observe(time.Duration(math.Round(v * float64(time.Second))))
}

// Reset clears every sample. It does not order itself against concurrent
// Observe calls: a caller that resets while others record serializes them.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sumNS.Store(0)
	h.minNS.Store(math.MaxInt64)
	h.maxNS.Store(0)
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the exact mean of all samples (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNS.Load() / int64(n))
}

// Sum returns the exact sum of all samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() time.Duration {
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.minNS.Load())
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() time.Duration {
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.maxNS.Load())
}

// Quantile returns the approximate p-quantile (p in [0,1]); 0 when empty.
func (h *Histogram) Quantile(p float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	min, max := time.Duration(h.minNS.Load()), time.Duration(h.maxNS.Load())
	if p <= 0 {
		return min
	}
	if p >= 1 {
		return max
	}
	target := uint64(p * float64(n))
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum > target {
			d := bucketMid(i)
			// Clamp into the exact observed range so p50 of a
			// single-valued distribution equals that value.
			if d < min {
				d = min
			}
			if d > max {
				d = max
			}
			return d
		}
	}
	return max
}

// QuantileFloat is Quantile in base units, for values ObserveFloat recorded.
func (h *Histogram) QuantileFloat(p float64) float64 { return h.Quantile(p).Seconds() }

// BucketCount is one cumulative histogram bucket: Count samples were at or
// below UpperBound.
type BucketCount struct {
	UpperBound time.Duration
	Count      uint64
}

// bucketUpper returns the upper edge of bucket i.
func bucketUpper(i int) time.Duration {
	return time.Duration(histBase * math.Pow(bucketGrowth, float64(i+1)))
}

// CumulativeBuckets returns cumulative counts at the upper edge of every
// non-empty bucket, in increasing bound order — exactly the series a
// Prometheus histogram exposes as `_bucket{le="..."}` lines (the caller
// appends the `+Inf` bucket). Skipping empty buckets keeps the exposition
// compact without changing its meaning: cumulative counts are valid at any
// subset of edges.
func (h *Histogram) CumulativeBuckets() []BucketCount {
	var out []BucketCount
	var cum uint64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		out = append(out, BucketCount{UpperBound: bucketUpper(i), Count: cum})
	}
	return out
}

// Summary is a fixed set of latency statistics for reporting.
type Summary struct {
	Count          uint64
	Mean, Min, Max time.Duration
	P50, P95, P99  time.Duration
}

// Summarize captures the histogram's headline statistics.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s max=%s",
		s.Count, round(s.Mean), round(s.P50), round(s.P95), round(s.P99), round(s.Max))
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
