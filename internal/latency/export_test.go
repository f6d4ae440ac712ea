package latency

import (
	"math/rand"
	"time"
)

// Sample draws a random sample from the window, or ok=false when empty.
func (r *Recorder) Sample(rng *rand.Rand) (time.Duration, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) == 0 {
		return 0, false
	}
	return r.ring[rng.Intn(len(r.ring))], true
}
