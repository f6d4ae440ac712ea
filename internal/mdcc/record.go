package mdcc

import (
	"time"

	"planet/internal/txn"
)

// record is a replica's state for one key: the committed value plus the
// accepted-but-undecided options and the Paxos promise.
type record struct {
	version int64
	bytes   []byte
	ival    int64
	isInt   bool
	bounded bool
	lo, hi  int64

	// promised is the highest classic ballot this replica promised for
	// the key; 0 means the key is still fast-eligible.
	promised uint64

	// pending holds the options by value: the backing array is reused across
	// propose/decide cycles, so a steady-state accept allocates nothing.
	// Every shrink goes through truncatePending, which zeroes the vacated
	// slots — an evicted Set's Value would otherwise stay reachable from the
	// spare capacity until overwritten.
	pending []pendingOption
}

// pendingOption is an accepted, undecided option held by a replica.
type pendingOption struct {
	txn      txn.ID
	op       txn.Op
	ballot   uint64
	accepted time.Time
}

// conflicts reports whether two options on the same key cannot both be
// pending: physical writes conflict with everything; commutative adds
// tolerate each other.
func conflicts(a, b txn.Op) bool {
	return a.Kind == txn.OpSet || b.Kind == txn.OpSet
}

// value snapshots the committed state. Bytes is a view, not a copy:
// committed byte slices are immutable — apply and the seed paths install
// fresh slices and never write in place — so sharing is safe and the hot
// read/snapshot/sync paths stay allocation-free. APIs that hand bytes to
// application code (core's ReadBytes) copy at that boundary instead.
func (r *record) value() Value {
	return Value{Version: r.version, Int: r.ival, IsInt: r.isInt, Bytes: r.bytes}
}

// evictStale drops pending options older than ttl (a liveness guard against
// lost decide messages). ttl <= 0 disables eviction.
func (r *record) evictStale(now time.Time, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	kept := r.pending[:0]
	for i := range r.pending {
		if now.Sub(r.pending[i].accepted) < ttl {
			kept = append(kept, r.pending[i])
		}
	}
	r.truncatePending(len(kept))
}

// truncatePending shortens pending to its first n entries and zeroes the
// slots it vacates.
func (r *record) truncatePending(n int) {
	clear(r.pending[n:])
	r.pending = r.pending[:n]
}

// validate checks op against committed state and pendings from other
// transactions, for a proposal at the given ballot. It returns ReasonNone
// when the option can be accepted.
func (r *record) validate(op txn.Op, ballot uint64, owner txn.ID) RejectReason {
	if ballot == 0 && r.promised > 0 {
		return ReasonClassicOwned
	}
	switch op.Kind {
	case txn.OpSet:
		if r.version != op.ReadVersion {
			return ReasonVersion
		}
		for i := range r.pending {
			if r.pending[i].txn != owner {
				return ReasonPending
			}
		}
	case txn.OpAdd:
		// Demarcation must be pessimistic per direction: any subset of
		// the accepted pendings may commit (the rest abort), so the
		// upper bound is checked as if only the positive deltas land and
		// the lower bound as if only the negative ones do.
		sumHi, sumLo := r.ival, r.ival
		for i := range r.pending {
			p := &r.pending[i]
			if p.txn == owner {
				continue
			}
			if p.op.Kind == txn.OpSet {
				return ReasonPending
			}
			if p.op.Delta > 0 {
				sumHi += p.op.Delta
			} else {
				sumLo += p.op.Delta
			}
		}
		if op.Delta > 0 {
			sumHi += op.Delta
		} else {
			sumLo += op.Delta
		}
		if r.bounded && (sumLo < r.lo || sumHi > r.hi) {
			return ReasonBound
		}
	}
	return ReasonNone
}

// addPending records an accepted option, replacing any existing pending
// entry from the same transaction.
func (r *record) addPending(id txn.ID, op txn.Op, ballot uint64, now time.Time) {
	for i := range r.pending {
		if p := &r.pending[i]; p.txn == id {
			p.op, p.ballot, p.accepted = op, ballot, now
			return
		}
	}
	r.pending = append(r.pending, pendingOption{txn: id, op: op, ballot: ballot, accepted: now})
}

// removePending drops the pending option owned by id, if present, and
// reports its ballot (0 for a fast-path acceptance).
func (r *record) removePending(id txn.ID) (ballot uint64, ok bool) {
	for i := range r.pending {
		if r.pending[i].txn == id {
			ballot = r.pending[i].ballot
			copy(r.pending[i:], r.pending[i+1:])
			r.truncatePending(len(r.pending) - 1)
			return ballot, true
		}
	}
	return 0, false
}

// evictConflictingBelow removes pendings that conflict with op and were
// accepted at a strictly lower ballot. Used when a classic phase-2a
// overrides leftover fast-ballot options.
func (r *record) evictConflictingBelow(op txn.Op, ballot uint64, owner txn.ID) {
	kept := r.pending[:0]
	for i := range r.pending {
		if p := &r.pending[i]; p.txn != owner && p.ballot < ballot && conflicts(p.op, op) {
			continue
		}
		kept = append(kept, r.pending[i])
	}
	r.truncatePending(len(kept))
}

// apply installs a decided option into committed state.
func (r *record) apply(op txn.Op) {
	switch op.Kind {
	case txn.OpSet:
		// Adopt the option's slice: op.Value is immutable after submission
		// (the client API copies user buffers), and committed bytes are only
		// ever replaced wholesale, so no defensive copy is needed here.
		r.bytes = op.Value
		r.isInt = false
	case txn.OpAdd:
		r.ival += op.Delta
		r.isInt = true
	}
	r.version++
}
