package txn

// Test-only accessors.

// Terminal reports whether s is a final stage.
func (s Stage) Terminal() bool {
	return s == StageRejected || s == StageCommitted || s == StageAborted
}
