// Package predictor implements PLANET's commit-likelihood estimation: the
// probability, continuously updated while a transaction is in flight, that
// it will eventually commit.
//
// The model combines two ingredients the coordinator can observe locally:
//
//   - message-latency distributions per replica region, learned from the
//     round-trip times of earlier votes (internal/latency recorders), which
//     give the probability that outstanding votes arrive before a deadline;
//
//   - contention statistics per record, learned from the accept/reject
//     votes of earlier transactions with exponential time decay, which give
//     the probability that an outstanding vote is an accept.
//
// The two are composed with a Poisson-binomial tail probability over the
// replicas that have not voted yet, per option, and multiplied across the
// transaction's options. A Monte-Carlo estimator with the same inputs is
// provided as a cross-check (ablation A2).
package predictor

import (
	"math"
	"sync"
	"time"

	"planet/internal/vclock"
)

// decayed is an exponentially decayed pair of accept/total weights.
type decayed struct {
	accept float64
	total  float64
	last   time.Time
}

// decayTo ages the weights to now given half-life hl.
func (d *decayed) decayTo(now time.Time, hl time.Duration) {
	if d.last.IsZero() || hl <= 0 {
		d.last = now
		return
	}
	dt := now.Sub(d.last)
	if dt <= 0 {
		return
	}
	f := math.Exp2(-float64(dt) / float64(hl))
	d.accept *= f
	d.total *= f
	d.last = now
}

// observe records one accept/reject observation at time now.
func (d *decayed) observe(now time.Time, accept bool, hl time.Duration) {
	d.decayTo(now, hl)
	d.total++
	if accept {
		d.accept++
	}
}

// rate returns the smoothed accept probability with a Beta(α,β)-style prior
// pulling toward prior when evidence is thin.
func (d *decayed) rate(now time.Time, hl time.Duration, prior float64, priorWeight float64) float64 {
	d.decayTo(now, hl)
	return (d.accept + prior*priorWeight) / (d.total + priorWeight)
}

// ConflictTracker learns per-key vote-accept probabilities with exponential
// decay, falling back to a global rate for keys without history. Per-key
// state is capped at maxKeys and nothing is ever evicted: once that many
// keys are tracked, a key not among them is never tracked and is estimated
// at the global rate for good. Safe for concurrent use.
type ConflictTracker struct {
	mu       sync.Mutex
	clk      vclock.Clock
	halfLife time.Duration
	keys     map[string]*decayed
	global   decayed
	maxKeys  int
}

// newConflictTracker binds the tracker to a clock for decay timestamps.
func newConflictTracker(halfLife time.Duration, clk vclock.Clock) *ConflictTracker {
	return &ConflictTracker{
		clk:      clk,
		halfLife: halfLife,
		keys:     make(map[string]*decayed),
		maxKeys:  1 << 16,
	}
}

// Observe records one vote on key.
func (t *ConflictTracker) Observe(key string, accept bool) {
	now := t.clk.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.global.observe(now, accept, t.halfLife)
	d := t.keys[key]
	if d == nil {
		if len(t.keys) >= t.maxKeys {
			// Bounded memory: rely on the global rate for new keys.
			return
		}
		d = &decayed{}
		t.keys[key] = d
	}
	d.observe(now, accept, t.halfLife)
}

// priorStrength is the pseudo-count pulling thin per-key evidence toward
// the global rate, and the global rate toward optimism (accepts are the
// common case in an uncontended store).
const priorStrength = 4

// AcceptProb returns the estimated probability that a vote on key accepts.
func (t *ConflictTracker) AcceptProb(key string) float64 {
	now := t.clk.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.global.rate(now, t.halfLife, 0.98, priorStrength)
	d := t.keys[key]
	if d == nil {
		return g
	}
	return d.rate(now, t.halfLife, g, priorStrength)
}
