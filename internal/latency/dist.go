// Package latency provides the delay models under the WAN emulator and
// PLANET's commit-likelihood predictor: parametric link delays the emulator
// samples (log-normal with an offset floor, or constant), and a windowed
// Recorder of observed delays the predictor queries for CDF values and
// quantiles.
//
// All durations are expressed as time.Duration. Distributions are immutable
// once constructed and safe for concurrent use; the streaming Recorder is
// internally synchronized.
package latency

import (
	"math"
	"math/rand"
	"time"
)

// Dist is a distribution over non-negative delays.
type Dist interface {
	// Sample draws one delay using rng.
	Sample(rng *rand.Rand) time.Duration
}

// LogNormal is a log-normal delay distribution shifted by a constant Floor:
// X = Floor + exp(N(Mu, Sigma^2)). The floor models the physical propagation
// minimum of a WAN link; the log-normal body models queueing jitter and the
// heavy-ish tail observed on real inter-datacenter paths.
type LogNormal struct {
	Floor time.Duration
	Mu    float64 // mean of the underlying normal, in log-nanoseconds
	Sigma float64 // stddev of the underlying normal
}

// NewLogNormal builds a LogNormal whose floor is floor and whose variable
// part has the given median and sigma. median is the median of the variable
// part (so the distribution's median is floor+median).
func NewLogNormal(floor, median time.Duration, sigma float64) LogNormal {
	if median <= 0 {
		median = time.Nanosecond
	}
	if sigma < 0 {
		sigma = 0
	}
	return LogNormal{Floor: floor, Mu: math.Log(float64(median)), Sigma: sigma}
}

// Sample implements Dist.
func (l LogNormal) Sample(rng *rand.Rand) time.Duration {
	v := math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
	return l.Floor + time.Duration(v)
}

// Constant is a degenerate distribution: every sample equals D.
type Constant time.Duration

// Sample implements Dist.
func (c Constant) Sample(*rand.Rand) time.Duration { return time.Duration(c) }
