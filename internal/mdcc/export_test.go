package mdcc

import (
	"time"

	"planet/internal/simnet"
)

// Test-only accessors.

// rec returns (creating if needed) the record for key, for white-box tests
// that inspect record state on a quiesced replica.
func (r *Replica) rec(key string) *record { return r.acquire(key) }

// PendingCount reports how many options are pending on key.
func (r *Replica) PendingCount(key string) (n int) {
	r.exec("", query(func(time.Time) {
		if rc := r.records[key]; rc != nil {
			n = len(rc.pending)
		}
	}))
	return n
}

// RecordCount reports how many keys the replica has built records for.
func (r *Replica) RecordCount() (n int) {
	r.exec("", query(func(time.Time) { n = len(r.records) }))
	return n
}

// HasRecord reports whether the replica has built a record for key.
func (r *Replica) HasRecord(key string) (ok bool) {
	r.exec("", query(func(time.Time) { ok = r.records[key] != nil }))
	return ok
}

// DecidedCount reports how many transaction decisions this replica retains
// for idempotence/reordering protection.
func (r *Replica) DecidedCount() (n int) {
	r.exec("", query(func(time.Time) { n = r.decided.len() }))
	return n
}

// AcquireLease starts a lease round for keyspace ks, as the lease tick
// does (see acquireLease).
func (r *Replica) AcquireLease(ks simnet.Region) {
	r.exec("", query(func(now time.Time) { r.acquireLease(now, ks) }))
}

// Lease returns this replica's view of keyspace ks's lease: the holder,
// epoch and expiry it granted (zero values when it never granted one),
// whether it holds the lease itself, and the last epoch it held.
func (r *Replica) Lease(ks simnet.Region) LeaseInfo {
	_, leases, _ := r.LeaseTable()
	for _, li := range leases {
		if li.Keyspace == string(ks) {
			return li
		}
	}
	return LeaseInfo{Keyspace: string(ks)}
}

// HoldsLease reports whether this replica currently masters keyspace ks.
func (r *Replica) HoldsLease(ks simnet.Region) bool { return r.Lease(ks).Held }

// LeaseView returns this replica's granted view of keyspace ks: the current
// holder, epoch, and expiry (zero values when no lease was ever granted).
func (r *Replica) LeaseView(ks simnet.Region) (holder simnet.Region, epoch uint64, expiry time.Time) {
	li := r.Lease(ks)
	return simnet.Region(li.Holder), li.Epoch, li.Expiry
}

// Seeds returns the seed image the replica builds its records from.
func (r *Replica) Seeds() *SeedImage { return r.cfg.Seeds }

// Len returns the number of logged entries.
func (w *WAL) Len() int {
	entries, _ := w.snapshot()
	return len(entries)
}

// Addr returns the replica's network address.
func (r *Replica) Addr() simnet.Addr { return r.cfg.Addr }

// Addr returns the coordinator's network address.
func (c *Coordinator) Addr() simnet.Addr { return c.cfg.Addr }

// SeedBytes seeds key=value in the replica's seed image (setup path), so
// every replica sharing the image starts from it.
func (r *Replica) SeedBytes(key string, value []byte) {
	r.cfg.Seeds.SeedBytes(key, value)
}

// LeaseTakeoverCount reports how many keyspace leases this replica has
// taken over from another holder.
func (r *Replica) LeaseTakeoverCount() uint64 {
	_, _, n := r.LeaseTable()
	return n
}
