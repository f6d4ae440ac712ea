package predictor

import (
	"math/rand"
	"time"

	"planet/internal/simnet"
)

// MonteCarlo estimates the same likelihood as Predictor.Likelihood by
// simulation: it repeatedly samples outstanding vote arrival times from the
// learned RTT distributions and accept/reject outcomes from the learned
// contention rates, and counts the fraction of trials in which every option
// reaches its quorum in time.
//
// It exists as a model cross-check (ablation A2): the analytic model should
// agree with it within sampling noise. It is considerably more expensive and
// not used on the hot path. The trials draw from a copy of each region's RTT
// window taken when the call first needs it.
func (p *Predictor) MonteCarlo(f Flight, trials int, rng *rand.Rand) float64 {
	if trials <= 0 {
		trials = 1000
	}
	windows := make(map[simnet.Region][]time.Duration)
	success := 0
trial:
	for t := 0; t < trials; t++ {
		for _, opt := range f.Options {
			if !p.sampleOption(opt, f, rng, windows) {
				continue trial
			}
		}
		success++
	}
	return float64(success) / float64(trials)
}

// sampleOption simulates one option's outcome in one trial.
func (p *Predictor) sampleOption(opt OptionFlight, f Flight, rng *rand.Rand, windows map[simnet.Region][]time.Duration) bool {
	switch {
	case opt.Learned > 0:
		return true
	case opt.Learned < 0:
		return false
	}
	if opt.FellBack {
		return rng.Float64() < p.classic.rate(0.7)
	}
	need := p.cfg.FastQuorum - opt.Accepts
	if need <= 0 {
		return true
	}
	q := 1.0
	if p.cfg.UseConflicts {
		q = p.conflicts.AcceptProb(opt.Key)
	}
	got := 0
	for _, region := range opt.Remaining {
		if p.cfg.UseLatency && f.Deadline > 0 && !p.sampleArrival(region, f.Elapsed, f.Deadline, rng, windows) {
			continue
		}
		if rng.Float64() < q {
			got++
			if got >= need {
				return true
			}
		}
	}
	return got >= need
}

// sampleArrival draws whether the region's vote lands inside the window
// (elapsed, deadline], conditioning on it not having arrived by elapsed via
// rejection sampling against the learned RTT distribution. windows caches
// the RTT window copies of the current MonteCarlo call.
func (p *Predictor) sampleArrival(region simnet.Region, elapsed, deadline time.Duration, rng *rand.Rand, windows map[simnet.Region][]time.Duration) bool {
	w, ok := windows[region]
	if !ok {
		if rec := p.recorder(region); rec != nil {
			w = rec.AppendWindow(nil)
		}
		windows[region] = w
	}
	if len(w) == 0 {
		return true
	}
	// Rejection-sample RTT | RTT > elapsed (bounded attempts; if every
	// draw is below elapsed the vote is effectively lost to the window).
	for attempt := 0; attempt < 32; attempt++ {
		if rtt := w[rng.Intn(len(w))]; rtt > elapsed {
			return rtt <= deadline
		}
	}
	return false
}
