package obs

import (
	"sync"
	"time"

	"planet/internal/txn"
)

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

// NewAttribution returns an empty engine with a lock of its own.
func NewAttribution() *Attribution { return &Attribution{mu: new(sync.Mutex)} }

// Spans returns a copy of id's recorded spans (nil if none, or evicted).
func (s *SpanStore) Spans(id txn.ID) []Span {
	if s == nil {
		return nil
	}
	return s.appendSpans(nil, id)
}

// observe folds one span duration into its stage's accumulator.
func (a *Attribution) observe(st Stage, d time.Duration) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.observeLocked(st, d)
	a.mu.Unlock()
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
