package mdcc

import (
	"math/rand"
	"reflect"
	"testing"

	"planet/internal/simnet"
	"planet/internal/txn"
)

// decidedTestIDs returns the ids a decision memo sees in practice and at its
// edges: runs minted by several regions' IDSpaces and by the process-global
// txn.NewID, plus ids on both sides of page boundaries.
func decidedTestIDs() []txn.ID {
	var ids []txn.ID
	for n := -1; n < 4; n++ {
		space := txn.NewIDSpace(n)
		for i := 0; i < 3*decidedPageIDs/2; i++ {
			ids = append(ids, space.NewID())
		}
	}
	for _, edge := range []uint64{decidedPageIDs, 7 * decidedPageIDs, 1<<56 + decidedPageIDs, 3<<56 + 2*decidedPageIDs} {
		ids = append(ids, txn.ID(edge-1), txn.ID(edge))
	}
	return ids
}

// TestDecidedSetMatchesMap drives the paged memo and a map[txn.ID]bool with
// the same random sets and gets, re-sets of seen ids included, and requires
// every get, the count and the full copy to agree.
func TestDecidedSetMatchesMap(t *testing.T) {
	ids := decidedTestIDs()
	rng := rand.New(rand.NewSource(1))
	var d decidedSet
	ref := make(map[txn.ID]bool)
	check := func(id txn.ID) {
		t.Helper()
		commit, seen := d.get(id)
		wantCommit, wantSeen := ref[id]
		if commit != wantCommit || seen != wantSeen {
			t.Fatalf("get(%d) = (%v, %v), want (%v, %v)", id, commit, seen, wantCommit, wantSeen)
		}
	}
	for step := 0; step < 50000; step++ {
		id := ids[rng.Intn(len(ids))]
		if rng.Intn(2) == 0 {
			commit := rng.Intn(2) == 0
			d.set(id, commit)
			ref[id] = commit
		}
		check(id)
	}
	// A seen id decided again takes the new verdict, both ways.
	for _, id := range []txn.ID{ids[0], ids[len(ids)-1]} {
		for _, commit := range []bool{true, false, true, false} {
			d.set(id, commit)
			ref[id] = commit
			check(id)
		}
	}
	if d.len() != len(ref) {
		t.Errorf("len = %d, want %d", d.len(), len(ref))
	}
	if got := d.toMap(); !reflect.DeepEqual(got, ref) {
		t.Errorf("toMap differs from the reference: %d entries, want %d", len(got), len(ref))
	}
	var empty decidedSet
	if _, seen := empty.get(ids[0]); seen || empty.len() != 0 || len(empty.toMap()) != 0 {
		t.Error("zero decidedSet is not empty")
	}
}

// TestReplicaDecisionsCrashRestore checks the memo through the replica:
// Decisions reports what the replica decided, Crash forgets it, and Restore
// rebuilds it from the WAL, where the last entry for an id wins.
func TestReplicaDecisionsCrashRestore(t *testing.T) {
	net := newLoneNet(t)
	peers := []simnet.Addr{{Region: "a", Name: "replica"}, {Region: "b", Name: "replica"}, {Region: "c", Name: "replica"}}
	wal := NewWAL(nil)
	r := NewReplica(ReplicaConfig{Net: net, Addr: peers[0], Peers: peers, WAL: wal})

	ids := decidedTestIDs()
	rng := rand.New(rand.NewSource(2))
	ref := make(map[txn.ID]bool)
	for i := 0; i < 2000; i++ {
		id := ids[rng.Intn(len(ids))]
		commit := rng.Intn(2) == 0
		r.onDecide(decideMsg{Txn: id, Commit: commit})
		if _, seen := ref[id]; !seen { // a repeated decide is ignored
			ref[id] = commit
		}
	}
	if got := r.Decisions(); !reflect.DeepEqual(got, ref) {
		t.Fatalf("Decisions: %d entries, want %d, or verdicts differ", len(got), len(ref))
	}
	if r.DecidedCount() != len(ref) {
		t.Errorf("DecidedCount = %d, want %d", r.DecidedCount(), len(ref))
	}

	// A later WAL entry for a seen id overrides the earlier verdict on replay.
	flipped := ids[0]
	if _, seen := ref[flipped]; !seen {
		r.onDecide(decideMsg{Txn: flipped, Commit: true})
		ref[flipped] = true
	}
	ref[flipped] = !ref[flipped]
	wal.Append(Entry{Txn: flipped, Commit: ref[flipped]})

	r.Crash()
	if got := r.Decisions(); len(got) != 0 || r.DecidedCount() != 0 {
		t.Fatalf("after Crash: %d decisions retained", len(got))
	}
	if err := r.Restore(); err != nil {
		t.Fatal(err)
	}
	if got := r.Decisions(); !reflect.DeepEqual(got, ref) {
		t.Fatalf("after Restore: %d entries, want %d, or verdicts differ", len(got), len(ref))
	}
}
