package planet

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"planet/internal/metrics"
	"planet/internal/vclock"
)

// AdaptiveAdmission configures the per-region admission feedback
// controller. Instead of a hand-tuned static AdmissionPolicy, the
// controller re-derives the likelihood threshold and in-flight bound once
// per epoch from what the region actually experienced: goodput, abort
// rate, the p99 commit latency against a target SLO, and the distribution
// of predicted commit likelihoods across the offered load.
//
// Control laws, evaluated each epoch per region:
//
//   - MaxInFlight follows AIMD against the latency SLO: while the epoch's
//     p99 commit latency stays within TargetP99 the window grows
//     additively; when it breaches, the window contracts multiplicatively.
//   - MinLikelihood is derived from a shed fraction: when the abort rate
//     exceeds AbortHigh the controller sheds a larger fraction of the
//     offered load, when it falls below AbortLow it sheds less. The
//     fraction is converted to a threshold by taking that quantile of the
//     epoch's observed prior likelihoods, so the bar lands exactly where
//     it cuts the intended share of traffic regardless of how the
//     predictor's output distribution shifts.
//   - The speculation floor rises and falls with the abort rate: under a
//     high-abort regime, speculating at a permissive workload-chosen
//     threshold mostly manufactures apologies, so the controller raises
//     the effective SpeculateAt for every transaction in the region.
//   - A fully stalled epoch (rejections but zero decisions) reopens the
//     window multiplicatively and drops the shed fraction — the
//     controller never wedges itself shut.
//
// Determinism: the epoch timer chains on the cluster's clock, every
// counter below is fed from handle code serialized on that same clock, and
// the histograms' quantiles are insertion-order-free — so identically-seeded
// virtual-time runs make identical decisions.
type AdaptiveAdmission struct {
	// Enabled turns the controller on.
	Enabled bool
	// Epoch is the controller cadence (emulator time, default 250ms).
	Epoch time.Duration
	// TargetP99 is the commit-latency SLO the in-flight AIMD window
	// tracks (default 2s).
	TargetP99 time.Duration
	// AbortHigh is the abort-rate ceiling above which admission tightens
	// (default 0.15); AbortLow the floor below which it relaxes (0.05).
	AbortHigh float64
	AbortLow  float64
	// MinInFlight / MaxInFlightCap bound the AIMD window (16 / 4096).
	MinInFlight    int
	MaxInFlightCap int
	// LikelihoodCeil caps the adaptive MinLikelihood so the controller
	// can never reject everything on likelihood alone (default 0.9).
	LikelihoodCeil float64
	// ProbeFraction overrides the static policy's probe escape while the
	// controller is active (default 0.02).
	ProbeFraction float64
	// MinDecided is the fewest decided transactions an epoch needs before
	// its statistics move any knob (default 16) — thin epochs hold steady
	// instead of chasing noise.
	MinDecided int
}

func (a AdaptiveAdmission) withDefaults() AdaptiveAdmission {
	if a.Epoch <= 0 {
		a.Epoch = 250 * time.Millisecond
	}
	if a.TargetP99 <= 0 {
		a.TargetP99 = 2 * time.Second
	}
	if a.AbortHigh <= 0 {
		a.AbortHigh = 0.15
	}
	if a.AbortLow <= 0 {
		a.AbortLow = 0.05
	}
	if a.MinInFlight <= 0 {
		a.MinInFlight = 16
	}
	if a.MaxInFlightCap <= 0 {
		a.MaxInFlightCap = 4096
	}
	if a.LikelihoodCeil <= 0 {
		a.LikelihoodCeil = 0.9
	}
	if a.ProbeFraction <= 0 {
		a.ProbeFraction = 0.02
	}
	if a.MinDecided <= 0 {
		a.MinDecided = 16
	}
	return a
}

// aimdStep is the additive in-flight window growth per within-SLO epoch.
const aimdStep = 8

// shedMax bounds the shed fraction: some probe share always survives.
const shedMax = 0.95

// AdmissionState is a snapshot of one region's controller (tests,
// experiments, gauges).
type AdmissionState struct {
	MinLikelihood float64
	MaxInFlight   int
	SpecFloor     float64
	ShedFraction  float64
	Epochs        uint64
}

// admissionCtl is one region's controller. Hot-path reads (every Commit)
// go through the published atomics; epoch bookkeeping and the histograms
// live behind mu.
type admissionCtl struct {
	cfg AdaptiveAdmission
	clk vclock.Clock

	// Published control outputs, read lock-free on the commit path.
	minLikelihood atomic.Uint64 // Float64bits
	maxInFlight   atomic.Int64
	specFloor     atomic.Uint64 // Float64bits

	mu          sync.Mutex
	epCommitted uint64
	epAborted   uint64
	epRejected  uint64
	shed        float64
	spec        float64
	epochs      uint64
	lat         *metrics.Histogram // commit latencies this epoch
	priors      *metrics.Histogram // offered-load prior likelihoods this epoch
}

func newAdmissionCtl(clk vclock.Clock, cfg AdaptiveAdmission, static AdmissionPolicy) *admissionCtl {
	cfg = cfg.withDefaults()
	c := &admissionCtl{
		cfg:    cfg,
		clk:    clk,
		lat:    metrics.NewHistogram(),
		priors: metrics.NewHistogram(),
	}
	// Seed from the static policy so the first epochs behave like the
	// baseline until real feedback arrives.
	mif := static.MaxInFlight
	if mif <= 0 {
		mif = 256
	}
	if mif < cfg.MinInFlight {
		mif = cfg.MinInFlight
	}
	if mif > cfg.MaxInFlightCap {
		mif = cfg.MaxInFlightCap
	}
	c.maxInFlight.Store(int64(mif))
	c.minLikelihood.Store(math.Float64bits(static.MinLikelihood))
	return c
}

// start schedules the first epoch tick.
func (c *admissionCtl) start() {
	c.clk.AfterFunc(c.cfg.Epoch, c.step)
}

// policy returns the static policy with the controller's published
// thresholds substituted in.
func (c *admissionCtl) policy(static AdmissionPolicy) AdmissionPolicy {
	static.MinLikelihood = math.Float64frombits(c.minLikelihood.Load())
	static.MaxInFlight = int(c.maxInFlight.Load())
	static.ProbeFraction = c.cfg.ProbeFraction
	return static
}

// specFloorVal returns the current speculation floor.
func (c *admissionCtl) specFloorVal() float64 {
	return math.Float64frombits(c.specFloor.Load())
}

// observePrior records one offered transaction's predicted commit
// likelihood (admitted or not — the shed quantile must see the whole
// offered distribution).
func (c *admissionCtl) observePrior(p float64) {
	c.mu.Lock()
	c.priors.ObserveFloat(p)
	c.mu.Unlock()
}

// observeReject records an admission rejection.
func (c *admissionCtl) observeReject() {
	c.mu.Lock()
	c.epRejected++
	c.mu.Unlock()
}

// observeFinal records a decided transaction and its commit latency.
func (c *admissionCtl) observeFinal(committed bool, d time.Duration) {
	c.mu.Lock()
	if committed {
		c.epCommitted++
	} else {
		c.epAborted++
	}
	c.lat.Observe(d)
	c.mu.Unlock()
}

// state snapshots the controller.
func (c *admissionCtl) state() AdmissionState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return AdmissionState{
		MinLikelihood: math.Float64frombits(c.minLikelihood.Load()),
		MaxInFlight:   int(c.maxInFlight.Load()),
		SpecFloor:     math.Float64frombits(c.specFloor.Load()),
		ShedFraction:  c.shed,
		Epochs:        c.epochs,
	}
}

// step runs one controller epoch and reschedules itself.
func (c *admissionCtl) step() {
	c.mu.Lock()
	com, ab, rej := c.epCommitted, c.epAborted, c.epRejected
	c.epCommitted, c.epAborted, c.epRejected = 0, 0, 0
	decided := com + ab
	p99 := c.lat.Quantile(0.99)
	priorN := c.priors.Count()

	mif := c.maxInFlight.Load()
	shed := c.shed
	spec := c.spec
	switch {
	case decided == 0 && rej > 0:
		// Stalled shut: load was offered, everything was rejected, nothing
		// decided. Reopen multiplicatively and shed less.
		mif = min64(int64(c.cfg.MaxInFlightCap), mif*2)
		shed = math.Max(0, shed-0.10)
		spec = math.Max(0, spec-0.10)
	case decided >= uint64(c.cfg.MinDecided):
		abortRate := float64(ab) / float64(decided)
		if p99 > c.cfg.TargetP99 {
			mif = max64(int64(c.cfg.MinInFlight), mif*7/10)
		} else {
			mif = min64(int64(c.cfg.MaxInFlightCap), mif+aimdStep)
		}
		if abortRate > c.cfg.AbortHigh {
			shed = math.Min(shedMax, shed+0.05)
			spec = math.Min(shedMax, spec+0.10)
		} else if abortRate < c.cfg.AbortLow {
			shed = math.Max(0, shed-0.05)
			spec = math.Max(0, spec-0.10)
		}
	}
	c.shed = shed
	c.spec = spec
	c.maxInFlight.Store(mif)

	ml := 0.0
	if shed > 0 {
		if priorN >= uint64(c.cfg.MinDecided) {
			ml = math.Min(c.priors.QuantileFloat(shed), c.cfg.LikelihoodCeil)
		} else {
			// Too few offers to re-derive the quantile; hold the bar.
			ml = math.Min(math.Float64frombits(c.minLikelihood.Load()), c.cfg.LikelihoodCeil)
		}
	}
	c.minLikelihood.Store(math.Float64bits(ml))
	c.specFloor.Store(math.Float64bits(spec))

	c.lat.Reset()
	c.priors.Reset()
	c.epochs++
	c.clk.AfterFunc(c.cfg.Epoch, c.step)
	c.mu.Unlock()
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
