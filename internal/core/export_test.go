package planet

import (
	"planet/internal/txn"
	"planet/internal/vclock"
)

// Test-only accessors.

// SpeculationShed reports how many transactions had speculation disabled
// because their home region was degraded.
func (db *DB) SpeculationShed() uint64 { return db.specShed.Load() }

// Clock returns the DB's time source.
func (s *Session) Clock() vclock.Clock { return s.db.clk }

// Stage returns the current stage.
func (h *Handle) Stage() txn.Stage {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stage
}
