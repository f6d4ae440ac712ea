package vclock

// Test-only accessors.

// Fired reports whether Fire has been called.
func (e *Event) Fired() bool {
	if v := e.v; v != nil {
		v.mu.Lock()
		defer v.mu.Unlock()
		return e.fired
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fired
}

// Running reports the granted-slot count.
func (v *Virtual) Running() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.running
}
