package planet

// Test-only accessors.

// SpeculationShed reports how many transactions had speculation disabled
// because their home region was degraded.
func (db *DB) SpeculationShed() uint64 { return db.specShed.Load() }
