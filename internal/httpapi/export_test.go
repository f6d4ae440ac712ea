package httpapi

// Test-only accessors.

// TrackedCount reports how many transactions the server currently retains.
func (s *Server) TrackedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.txns)
}

// SetMaxTracked overrides the retention cap.
func (s *Server) SetMaxTracked(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > 0 {
		s.maxTxn = n
	}
}
