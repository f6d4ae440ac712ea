package mdcc

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"planet/internal/simnet"
	"planet/internal/txn"
)

func setOp(key string, readVersion int64) txn.Op {
	return txn.Op{Kind: txn.OpSet, Key: key, Value: []byte("v"), ReadVersion: readVersion}
}

func addOp(key string, delta int64) txn.Op {
	return txn.Op{Kind: txn.OpAdd, Key: key, Delta: delta}
}

func TestConflictsMatrix(t *testing.T) {
	set, add := setOp("k", 0), addOp("k", 1)
	cases := []struct {
		a, b txn.Op
		want bool
	}{
		{set, set, true},
		{set, add, true},
		{add, set, true},
		{add, add, false},
	}
	for _, tc := range cases {
		if got := conflicts(tc.a, tc.b); got != tc.want {
			t.Errorf("conflicts(%v,%v)=%v, want %v", tc.a.Kind, tc.b.Kind, got, tc.want)
		}
	}
}

func TestRecordValidateSet(t *testing.T) {
	r := &record{version: 3}
	if got := r.validate(setOp("k", 3), 0, 1); got != ReasonNone {
		t.Errorf("matching version: %v", got)
	}
	if got := r.validate(setOp("k", 2), 0, 1); got != ReasonVersion {
		t.Errorf("stale version: %v", got)
	}
	r.addPending(2, setOp("k", 3), 0, time.Now())
	if got := r.validate(setOp("k", 3), 0, 1); got != ReasonPending {
		t.Errorf("pending conflict: %v", got)
	}
	// The same transaction's own pending does not conflict.
	if got := r.validate(setOp("k", 3), 0, 2); got != ReasonNone {
		t.Errorf("own pending: %v", got)
	}
}

func TestRecordValidateClassicOwned(t *testing.T) {
	r := &record{promised: 2}
	if got := r.validate(setOp("k", 0), 0, 1); got != ReasonClassicOwned {
		t.Errorf("fast on owned key: %v", got)
	}
	if got := r.validate(setOp("k", 0), 2, 1); got != ReasonNone {
		t.Errorf("classic on owned key: %v", got)
	}
}

func TestRecordValidateAddBounds(t *testing.T) {
	r := &record{ival: 5, isInt: true, bounded: true, lo: 0, hi: 10}
	if got := r.validate(addOp("k", -5), 0, 1); got != ReasonNone {
		t.Errorf("in-bounds add: %v", got)
	}
	if got := r.validate(addOp("k", -6), 0, 1); got != ReasonBound {
		t.Errorf("below-lo add: %v", got)
	}
	if got := r.validate(addOp("k", 6), 0, 1); got != ReasonBound {
		t.Errorf("above-hi add: %v", got)
	}
	// Pending adds from other txns count against the bound.
	r.addPending(2, addOp("k", -4), 0, time.Now())
	if got := r.validate(addOp("k", -2), 0, 1); got != ReasonBound {
		t.Errorf("bound with pendings: %v", got)
	}
	if got := r.validate(addOp("k", -1), 0, 1); got != ReasonNone {
		t.Errorf("fits with pendings: %v", got)
	}
	// A pending Set blocks adds.
	r.pending = nil
	r.addPending(3, setOp("k", 0), 0, time.Now())
	if got := r.validate(addOp("k", 1), 0, 1); got != ReasonPending {
		t.Errorf("add over pending set: %v", got)
	}
}

// TestDemarcationPessimisticPerDirection is the regression test for a bug
// the fuzzer found: with a net-zero mix of pending deltas, aborting the
// negative one must not let the positive one carry the committed value
// past the bound. The check has to treat each direction independently.
func TestDemarcationPessimisticPerDirection(t *testing.T) {
	r := &record{ival: 50, isInt: true, bounded: true, lo: 0, hi: 100}
	now := time.Now()

	neg := addOp("k", -40)
	if got := r.validate(neg, 0, 1); got != ReasonNone {
		t.Fatalf("negative add: %v", got)
	}
	r.addPending(1, neg, 0, now)

	// +80 must be rejected: if the -40 aborts, 50+80 = 130 > 100.
	pos := addOp("k", 80)
	if got := r.validate(pos, 0, 2); got != ReasonBound {
		t.Fatalf("net-zero masking: +80 accepted with -40 pending: %v", got)
	}
	// +50 is fine: worst case toward hi is 50+50 = 100.
	pos = addOp("k", 50)
	if got := r.validate(pos, 0, 2); got != ReasonNone {
		t.Fatalf("+50 rejected: %v", got)
	}
	r.addPending(2, pos, 0, now)

	// Worst-case interleaving: abort the -40, commit the +50.
	r.removePending(1)
	r.apply(pos)
	if r.ival < r.lo || r.ival > r.hi {
		t.Fatalf("committed value %d escaped [0,100]", r.ival)
	}
}

func TestRecordPendingLifecycle(t *testing.T) {
	r := &record{}
	now := time.Now()
	r.addPending(1, addOp("k", 1), 0, now)
	r.addPending(2, addOp("k", 2), 0, now)
	if len(r.pending) != 2 {
		t.Fatalf("pending=%d", len(r.pending))
	}
	// Re-adding for the same txn replaces, not appends.
	r.addPending(1, addOp("k", 5), 3, now)
	if len(r.pending) != 2 || r.pending[0].op.Delta != 5 || r.pending[0].ballot != 3 {
		t.Errorf("replace failed: %+v", r.pending[0])
	}
	r.removePending(1)
	if len(r.pending) != 1 || r.pending[0].txn != 2 {
		t.Errorf("remove failed: %+v", r.pending)
	}
	r.removePending(99) // absent: no-op
	if len(r.pending) != 1 {
		t.Error("removing absent txn changed state")
	}
}

func TestRecordEvictStale(t *testing.T) {
	r := &record{}
	old := time.Now().Add(-time.Hour)
	r.addPending(1, addOp("k", 1), 0, old)
	r.addPending(2, addOp("k", 2), 0, time.Now())
	r.evictStale(time.Now(), time.Minute)
	if len(r.pending) != 1 || r.pending[0].txn != 2 {
		t.Errorf("eviction kept %+v", r.pending)
	}
	// TTL zero disables eviction.
	r.addPending(3, addOp("k", 3), 0, old)
	r.evictStale(time.Now(), 0)
	if len(r.pending) != 2 {
		t.Error("TTL=0 evicted")
	}
}

func TestRecordEvictConflictingBelow(t *testing.T) {
	r := &record{}
	now := time.Now()
	r.addPending(1, setOp("k", 0), 0, now) // fast ballot
	r.addPending(2, addOp("k", 1), 0, now) // fast ballot, commutes w/ adds
	r.evictConflictingBelow(setOp("k", 0), 5, 9)
	// Both conflict with the incoming Set and sit below ballot 5.
	if len(r.pending) != 0 {
		t.Errorf("kept %+v", r.pending)
	}
	// Equal-or-higher ballots survive.
	r.addPending(3, setOp("k", 0), 5, now)
	r.evictConflictingBelow(setOp("k", 0), 5, 9)
	if len(r.pending) != 1 {
		t.Error("equal-ballot pending evicted")
	}
	// The owner's own entries survive regardless of ballot.
	r.pending = nil
	r.addPending(9, setOp("k", 0), 0, now)
	r.evictConflictingBelow(setOp("k", 0), 5, 9)
	if len(r.pending) != 1 {
		t.Error("owner's pending evicted")
	}
}

func TestRecordApply(t *testing.T) {
	r := &record{}
	r.apply(setOp("k", 0))
	if r.version != 1 || string(r.bytes) != "v" || r.isInt {
		t.Errorf("after set: %+v", r)
	}
	r.apply(addOp("k", 7))
	if r.version != 2 || r.ival != 7 || !r.isInt {
		t.Errorf("after add: %+v", r)
	}
}

func TestRecordValueViewStableAcrossApply(t *testing.T) {
	// value() returns a zero-copy view of the committed bytes. The safety
	// contract is that committed slices are never written in place: apply
	// installs a fresh slice, so a view taken before an apply still reads
	// the old committed value afterwards.
	r := &record{bytes: []byte("abc"), version: 1}
	v := r.value()
	if &v.Bytes[0] != &r.bytes[0] {
		t.Error("value should be a view, not a copy")
	}
	r.apply(txn.Op{Kind: txn.OpSet, Key: "k", Value: []byte("xyz"), ReadVersion: 1})
	if string(v.Bytes) != "abc" {
		t.Errorf("view mutated by apply: %q", v.Bytes)
	}
	if string(r.value().Bytes) != "xyz" {
		t.Errorf("committed bytes = %q, want xyz", r.value().Bytes)
	}
}

// Property: a validated-then-added option never makes a later validation of
// a commuting add with total within bounds fail, and never lets the
// pessimistic pending sum escape the bounds.
func TestRecordAddValidationProperty(t *testing.T) {
	f := func(seedVal int8, deltas []int8) bool {
		r := &record{ival: int64(seedVal), isInt: true, bounded: true, lo: -100, hi: 100}
		sum := r.ival
		id := txn.ID(1)
		for _, d := range deltas {
			op := addOp("k", int64(d))
			reason := r.validate(op, 0, id)
			if reason == ReasonNone {
				r.addPending(id, op, 0, time.Now())
				sum += int64(d)
				if sum < r.lo || sum > r.hi {
					return false // accepted an option that can violate bounds
				}
			}
			id++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRecoveryThreshold(t *testing.T) {
	// K = classicQ - (n - fastQ): the minimum phase-1b appearances at
	// which an option may have been fast-chosen.
	cases := []struct{ n, want int }{
		{3, 2}, // cq=2, fq=3 → 2-0
		{5, 2}, // cq=3, fq=4 → 3-1
		{7, 3}, // cq=4, fq=6 → 4-1
	}
	for _, tc := range cases {
		if got := recoveryThreshold(tc.n); got != tc.want {
			t.Errorf("recoveryThreshold(%d)=%d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestRejectReasonProperties(t *testing.T) {
	if !ReasonVersion.Fatal() || !ReasonBound.Fatal() {
		t.Error("fatal reasons misclassified")
	}
	for _, r := range []RejectReason{ReasonNone, ReasonPending, ReasonClassicOwned, ReasonDecided, ReasonBallot} {
		if r.Fatal() {
			t.Errorf("%v should not be fatal", r)
		}
	}
	for r := ReasonNone; r <= ReasonBallot; r++ {
		if r.String() == "" {
			t.Errorf("reason %d has no name", r)
		}
	}
}

func TestMasterForDeterministic(t *testing.T) {
	regionList := []simnet.Region{"a", "b", "c"}
	m1 := MasterFor("some-key", regionList)
	m2 := MasterFor("some-key", regionList)
	if m1 != m2 {
		t.Errorf("MasterFor not deterministic: %v vs %v", m1, m2)
	}
	// Different keys spread across regions.
	seen := make(map[simnet.Region]bool)
	for i := 0; i < 100; i++ {
		seen[MasterFor(string(rune('a'+i%26))+string(rune('0'+i/26)), regionList)] = true
	}
	if len(seen) != 3 {
		t.Errorf("masters used %d of 3 regions", len(seen))
	}
}

// TestRecordPendingShrinkClearsSlots: pendings live by value in a backing
// array that outlives them, so each way of shrinking the slice must zero the
// slots it vacates — an evicted Set's Value would otherwise stay reachable
// from the spare capacity until a later accept overwrote it.
func TestRecordPendingShrinkClearsSlots(t *testing.T) {
	now := time.Now()
	old := now.Add(-time.Hour)
	big := func() txn.Op { return txn.Op{Kind: txn.OpSet, Key: "k", Value: make([]byte, 1024)} }
	cases := []struct {
		name   string
		shrink func(r *record)
		left   []txn.ID
	}{
		{"removePending", func(r *record) { r.removePending(2) }, []txn.ID{1, 3}},
		{"evictStale", func(r *record) { r.evictStale(now, time.Minute) }, []txn.ID{3}},
		{"evictConflictingBelow", func(r *record) { r.evictConflictingBelow(big(), 5, 3) }, []txn.ID{3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := &record{}
			r.addPending(1, big(), 1, old)
			r.addPending(2, big(), 2, old)
			r.addPending(3, big(), 3, now)
			c.shrink(r)
			if len(r.pending) != len(c.left) {
				t.Fatalf("kept %+v, want txns %v", r.pending, c.left)
			}
			for i, id := range c.left {
				if r.pending[i].txn != id || len(r.pending[i].op.Value) != 1024 {
					t.Fatalf("kept %+v, want txns %v with their values", r.pending, c.left)
				}
			}
			for i, p := range r.pending[len(r.pending):cap(r.pending)] {
				if !reflect.DeepEqual(p, pendingOption{}) {
					t.Errorf("slot %d past len still holds %+v", len(r.pending)+i, p)
				}
			}
		})
	}
}
