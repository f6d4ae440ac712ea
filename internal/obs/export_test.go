package obs

// Test-only accessors.

// TxnCount reports how many transactions currently have a retained entry.
func (s *SpanStore) TxnCount() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.txns)
}

// Snapshot captures the engine's current statistics.
func (a *Attribution) Snapshot() Snapshot {
	if a == nil {
		return Snapshot{}
	}
	a.mu.Lock()
	stages := a.stages
	a.mu.Unlock()
	return snapshotFrom(stages)
}
