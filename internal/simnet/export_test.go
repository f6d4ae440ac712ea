package simnet

// TimeScale returns the effective scale factor (always > 0).
func (n *Network) TimeScale() float64 { return n.scale }
