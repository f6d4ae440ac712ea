package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// ewmaAlpha weights the exponentially weighted moving averages kept per
// stage (duration and jitter). 0.2 ≈ a ~10-sample memory: fast enough to
// track a latency-spike phase, slow enough not to chase single outliers.
const ewmaAlpha = 0.2

// stageAcc accumulates one stage's duration statistics: exact streaming
// mean/variance (Welford), min/max, and EWMA of the duration and of its
// absolute deviation (jitter). All fields are in float64 nanoseconds.
type stageAcc struct {
	count    uint64
	mean, m2 float64
	min, max float64
	ewma     float64
	jitter   float64
}

func (a *stageAcc) observe(ns float64) {
	a.count++
	delta := ns - a.mean
	a.mean += delta / float64(a.count)
	a.m2 += delta * (ns - a.mean)
	if a.count == 1 {
		a.min, a.max = ns, ns
		a.ewma = ns
		a.jitter = 0
		return
	}
	if ns < a.min {
		a.min = ns
	}
	if ns > a.max {
		a.max = ns
	}
	dev := math.Abs(ns - a.ewma)
	a.ewma += ewmaAlpha * (ns - a.ewma)
	a.jitter += ewmaAlpha * (dev - a.jitter)
}

// variance returns the sample variance in ns².
func (a *stageAcc) variance() float64 {
	if a.count < 2 {
		return 0
	}
	return a.m2 / float64(a.count-1)
}

// Attribution aggregates completed spans into per-stage latency statistics
// and ranks stages by their variance contribution (VProfiler-style): the
// stage with the largest variance is where latency *unpredictability* comes
// from, which is exactly what the commit-likelihood predictor needs to
// know. A store's engine is guarded by the store's own lock, so a span is
// recorded and folded in under one acquisition. Safe on a nil receiver and
// for concurrent use.
type Attribution struct {
	mu     *sync.Mutex
	stages [NumStages]stageAcc
}

// observeLocked folds one span duration into its stage's accumulator.
// Caller holds a.mu.
func (a *Attribution) observeLocked(st Stage, d time.Duration) {
	if st < NumStages {
		a.stages[st].observe(float64(d))
	}
}

// StageStats returns a stage's duration EWMA, jitter EWMA, and sample
// count. This is the predictor's feed: ewma estimates the stage's current
// cost, jitter its current volatility.
func (a *Attribution) StageStats(st Stage) (ewma, jitter time.Duration, n uint64) {
	if a == nil || st >= NumStages {
		return 0, 0, 0
	}
	a.mu.Lock()
	acc := a.stages[st]
	a.mu.Unlock()
	return time.Duration(acc.ewma), time.Duration(acc.jitter), acc.count
}

// StageStat is one stage's aggregated statistics in a snapshot.
type StageStat struct {
	Stage  string        `json:"stage"`
	Leaf   bool          `json:"leaf"`
	Count  uint64        `json:"count"`
	Mean   time.Duration `json:"mean_ns"`
	Stddev time.Duration `json:"stddev_ns"`
	Min    time.Duration `json:"min_ns"`
	Max    time.Duration `json:"max_ns"`
	EWMA   time.Duration `json:"ewma_ns"`
	Jitter time.Duration `json:"jitter_ns"`
	// VarianceMs2 is the sample variance in milliseconds², the ranking
	// key. A float of ms² stays readable where ns² would overflow
	// intuition (and JSON consumers' float precision).
	VarianceMs2 float64 `json:"variance_ms2"`
	// Share is this stage's fraction of the summed leaf variance
	// (containers report 0).
	Share float64 `json:"share"`
}

// Snapshot is a point-in-time attribution report.
type Snapshot struct {
	// Stages lists every stage with samples, sorted by descending
	// variance (ties broken by stage order, so equal-variance snapshots
	// render identically).
	Stages []StageStat `json:"stages"`
	// Dominant names the leaf stage with the largest variance — "where
	// is my latency going" in one word. Empty until two samples exist.
	Dominant string `json:"dominant,omitempty"`
}

// snapshotFrom builds the ranked report from a set of accumulators (shared
// by Attribution.Snapshot and the merged AttributionSet view).
func snapshotFrom(stages [NumStages]stageAcc) Snapshot {
	var snap Snapshot
	var leafVar float64
	for st := Stage(0); st < NumStages; st++ {
		if st.Leaf() {
			leafVar += stages[st].variance()
		}
	}
	for st := Stage(0); st < NumStages; st++ {
		acc := &stages[st]
		if acc.count == 0 {
			continue
		}
		v := acc.variance()
		stat := StageStat{
			Stage:       st.String(),
			Leaf:        st.Leaf(),
			Count:       acc.count,
			Mean:        time.Duration(acc.mean),
			Stddev:      time.Duration(math.Sqrt(v)),
			Min:         time.Duration(acc.min),
			Max:         time.Duration(acc.max),
			EWMA:        time.Duration(acc.ewma),
			Jitter:      time.Duration(acc.jitter),
			VarianceMs2: nsToMs2(v),
		}
		if st.Leaf() && leafVar > 0 {
			stat.Share = v / leafVar
		}
		snap.Stages = append(snap.Stages, stat)
	}
	// Rank by descending variance; ties keep taxonomy order (stable sort
	// over an already taxonomy-ordered slice).
	sort.SliceStable(snap.Stages, func(i, j int) bool {
		return snap.Stages[i].VarianceMs2 > snap.Stages[j].VarianceMs2
	})
	for _, stat := range snap.Stages {
		if stat.Leaf && stat.Count >= 2 {
			snap.Dominant = stat.Stage
			break
		}
	}
	return snap
}

// nsToMs2 converts a variance in ns² to ms².
func nsToMs2(v float64) float64 { return v / 1e12 }

// Table renders the snapshot as a fixed-width text table, stages in ranked
// order. The rendering is deterministic for identical statistics — the
// attribution-determinism gate compares two seeded runs' tables
// byte-for-byte.
func (s Snapshot) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-17s %8s %12s %12s %12s %14s %7s\n",
		"stage", "count", "mean", "stddev", "ewma", "variance(ms2)", "share")
	for _, st := range s.Stages {
		fmt.Fprintf(&b, "%-17s %8d %12s %12s %12s %14.6f %6.1f%%\n",
			st.Stage, st.Count,
			st.Mean.Round(time.Microsecond),
			st.Stddev.Round(time.Microsecond),
			st.EWMA.Round(time.Microsecond),
			st.VarianceMs2, st.Share*100)
	}
	if s.Dominant != "" {
		fmt.Fprintf(&b, "dominant variance: %s\n", s.Dominant)
	}
	return b.String()
}
