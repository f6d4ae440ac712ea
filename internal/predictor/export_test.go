package predictor

import (
	"time"

	"planet/internal/simnet"
	"planet/internal/vclock"
)

// Test-only constructors and accessors.

// NewConflictTracker returns a tracker whose observations decay with the
// given half-life (in emulator time). halfLife <= 0 disables decay.
// The tracker keeps per-key state for the first 65 536 keys it sees and
// estimates every other key at the global rate.
func NewConflictTracker(halfLife time.Duration) *ConflictTracker {
	return newConflictTracker(halfLife, vclock.System)
}

// GlobalAcceptProb returns the store-wide vote-accept probability.
func (t *ConflictTracker) GlobalAcceptProb() float64 {
	now := t.clk.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.global.rate(now, t.halfLife, 0.98, priorStrength)
}

// KeyCount reports how many keys carry dedicated statistics.
func (t *ConflictTracker) KeyCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.keys)
}

// RTTQuantile returns the learned RTT quantile to a region.
func (p *Predictor) RTTQuantile(region simnet.Region, q float64) (time.Duration, bool) {
	rec := p.recorder(region)
	if rec == nil {
		return 0, false
	}
	return rec.Quantile(q)
}
