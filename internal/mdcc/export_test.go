package mdcc

// Test-only accessors.

// rec returns (creating if needed) the record for key, for white-box tests
// that inspect record state on a quiesced replica or under r.mu.
func (r *Replica) rec(key string) *record { return r.acquire(key) }

// PendingCount reports how many options are pending on key.
func (r *Replica) PendingCount(key string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rc := r.records[key]; rc != nil {
		return len(rc.pending)
	}
	return 0
}

// RecordCount reports how many keys the replica has built records for.
func (r *Replica) RecordCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.records)
}

// HasRecord reports whether the replica has built a record for key.
func (r *Replica) HasRecord(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.records[key] != nil
}

// Seeds returns the seed image the replica builds its records from.
func (r *Replica) Seeds() *SeedImage { return r.cfg.Seeds }

// Len returns the number of logged entries.
func (w *WAL) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.entries)
}
