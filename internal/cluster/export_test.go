package cluster

import "time"

// Test-only accessors.

// UnscaleDuration converts a measured emulator duration back to WAN time.
func (c *Cluster) UnscaleDuration(d time.Duration) time.Duration {
	return time.Duration(float64(d) / c.scale)
}

// LeaseTerm returns the effective (already time-scaled) lease term, or zero
// when master leases are disabled.
func (c *Cluster) LeaseTerm() time.Duration { return c.spec.leaseTerm }
