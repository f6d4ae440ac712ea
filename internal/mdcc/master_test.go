package mdcc

import (
	"testing"

	"planet/internal/simnet"
	"planet/internal/txn"
)

// newLoneReplica builds a replica whose peers exist only as addresses, so
// its step can be driven directly with synthetic messages and the replica's
// outbound messages vanish harmlessly. The test goroutine holds the virtual
// clock's execution slot and never yields it, so no other step runs while
// the test reads the replica's state.
func newLoneReplica(t *testing.T, n int) *Replica {
	t.Helper()
	net := newLoneNet(t)
	peers := make([]simnet.Addr, n)
	for i := range peers {
		peers[i] = simnet.Addr{Region: simnet.Region(string(rune('a' + i))), Name: "replica"}
	}
	return NewReplica(ReplicaConfig{Net: net, Addr: peers[0], Peers: peers})
}

func regionOf(i int) simnet.Region { return simnet.Region(string(rune('a' + i))) }

func TestMasterPhase1TakesOwnership(t *testing.T) {
	r := newLoneReplica(t, 5)
	coord := simnet.Addr{Region: "a", Name: "coord"}

	r.exec("", classicProposeBatchMsg{Txn: 1, Coord: coord, Options: []txn.Op{setOp("k", 0)}})

	ks := r.masters["k"]
	if ks == nil || ks.p1 == nil || ks.leased {
		t.Fatalf("phase1 not started: %+v", ks)
	}
	ballot := ks.ballot
	if ballot == 0 {
		t.Fatal("ballot not advanced")
	}
	// Self-promise happened synchronously.
	if r.rec("k").promised != ballot {
		t.Errorf("self promise %d, want %d", r.rec("k").promised, ballot)
	}

	// Two more OK phase-1b responses reach the classic quorum of 3.
	r.exec("", phase1bMsg{Key: "k", Ballot: ballot, OK: true, Region: regionOf(1)})
	r.exec("", phase1bMsg{Key: "k", Ballot: ballot, OK: true, Region: regionOf(2)})

	if !ks.leased || ks.p1 != nil {
		t.Fatalf("ownership not taken: leased=%v", ks.leased)
	}
	// The queued client proposal was sequenced: it is pending at the
	// master and in flight.
	if ks.inflight[1] == nil {
		t.Fatal("queued proposal not sequenced after phase1")
	}
	if got := len(r.rec("k").pending); got != 1 {
		t.Errorf("master pendings=%d, want 1", got)
	}
}

// TestMasterRecoveryReproposesPossiblyChosen is the heart of coordinated
// Fast Paxos recovery: an option reported by >= recoveryThreshold replicas
// in phase 1 may have been fast-chosen and must be re-proposed at the new
// ballot before any competing client option is considered.
func TestMasterRecoveryReproposesPossiblyChosen(t *testing.T) {
	r := newLoneReplica(t, 5) // threshold = 2
	coord := simnet.Addr{Region: "a", Name: "coord"}

	// A client proposal for txn 7 arrives and starts phase 1.
	r.exec("", classicProposeBatchMsg{Txn: 7, Coord: coord, Options: []txn.Op{setOp("k", 0)}})
	ballot := r.masters["k"].ballot

	// Phase-1b responses report a conflicting fast-ballot option (txn 42)
	// pending at two replicas: possibly chosen.
	ghost := pendingSnapshot{Txn: 42, Option: setOp("k", 0), Ballot: 0}
	r.exec("", phase1bMsg{Key: "k", Ballot: ballot, OK: true, Region: regionOf(1),
		Pending: []pendingSnapshot{ghost}})
	r.exec("", phase1bMsg{Key: "k", Ballot: ballot, OK: true, Region: regionOf(2),
		Pending: []pendingSnapshot{ghost}})

	ks := r.masters["k"]
	if !ks.leased {
		t.Fatal("phase1 incomplete")
	}
	// txn 42 must be re-proposed (in flight at the master)...
	if ks.inflight[42] == nil {
		t.Fatal("possibly-chosen option not re-proposed")
	}
	if r.RecoveryRuns == 0 {
		t.Error("recovery not counted")
	}
	// ...and the client's conflicting txn 7 must NOT be in flight: it was
	// rejected against the recovered pending.
	if ks.inflight[7] != nil {
		t.Error("conflicting client option proposed over a possibly-chosen one")
	}
}

func TestMasterRecoveryIgnoresBelowThreshold(t *testing.T) {
	r := newLoneReplica(t, 5)
	coord := simnet.Addr{Region: "a", Name: "coord"}

	r.exec("", classicProposeBatchMsg{Txn: 7, Coord: coord, Options: []txn.Op{setOp("k", 0)}})
	ballot := r.masters["k"].ballot

	// The ghost option appears only once: it cannot have been fast-chosen
	// (max accepts 1 + (5 - promised quorum 3) = 3 < fastQuorum 4).
	ghost := pendingSnapshot{Txn: 42, Option: setOp("k", 0), Ballot: 0}
	r.exec("", phase1bMsg{Key: "k", Ballot: ballot, OK: true, Region: regionOf(1),
		Pending: []pendingSnapshot{ghost}})
	r.exec("", phase1bMsg{Key: "k", Ballot: ballot, OK: true, Region: regionOf(2)})

	ks := r.masters["k"]
	if ks.inflight[42] != nil {
		t.Error("below-threshold option re-proposed")
	}
	if ks.inflight[7] == nil {
		t.Error("client option not sequenced")
	}
}

func TestMasterPhase2QuorumResolution(t *testing.T) {
	r := newLoneReplica(t, 5)
	coord := simnet.Addr{Region: "a", Name: "coord"}

	r.exec("", classicProposeBatchMsg{Txn: 9, Coord: coord, Options: []txn.Op{setOp("k", 0)}})
	ballot := r.masters["k"].ballot
	r.exec("", phase1bMsg{Key: "k", Ballot: ballot, OK: true, Region: regionOf(1)})
	r.exec("", phase1bMsg{Key: "k", Ballot: ballot, OK: true, Region: regionOf(2)})

	// Master already counts itself (1 accept); one more phase-2b reaches
	// nothing, two reach the classic quorum of 3.
	r.exec("", phase2bBatchMsg{Region: regionOf(1), Items: []phase2bItem{{Txn: 9, Key: "k", Ballot: ballot, Accept: true}}})
	mo := r.masters["k"].inflight[9]
	done := mo.done
	if done {
		t.Fatal("quorum declared with 2 of 3 accepts")
	}
	r.exec("", phase2bBatchMsg{Region: regionOf(2), Items: []phase2bItem{{Txn: 9, Key: "k", Ballot: ballot, Accept: true}}})
	if !mo.done {
		t.Fatal("quorum not declared with 3 accepts")
	}
}

func TestMasterStaleBallotPhase1bIgnored(t *testing.T) {
	r := newLoneReplica(t, 5)
	coord := simnet.Addr{Region: "a", Name: "coord"}
	r.exec("", classicProposeBatchMsg{Txn: 1, Coord: coord, Options: []txn.Op{setOp("k", 0)}})
	ballot := r.masters["k"].ballot

	r.exec("", phase1bMsg{Key: "k", Ballot: ballot + 7, OK: true, Region: regionOf(1)})
	r.exec("", phase1bMsg{Key: "k", Ballot: ballot, OK: false, Region: regionOf(2)})
	r.exec("", phase1bMsg{Key: "k", Ballot: ballot, OK: true, Region: regionOf(1)})
	r.exec("", phase1bMsg{Key: "k", Ballot: ballot, OK: true, Region: regionOf(1)}) // dup region

	if r.masters["k"].leased {
		t.Error("leased from stale/duplicate/nack responses")
	}
}

func TestAcceptorPhase1aPromise(t *testing.T) {
	r := newLoneReplica(t, 5)
	master := simnet.Addr{Region: "b", Name: "replica"}

	r.exec("", phase1aMsg{Key: "k", Ballot: 3, Master: master})
	if r.rec("k").promised != 3 {
		t.Errorf("promised=%d", r.rec("k").promised)
	}

	// A lower ballot must not regress the promise.
	r.exec("", phase1aMsg{Key: "k", Ballot: 2, Master: master})
	if r.rec("k").promised != 3 {
		t.Errorf("promise regressed to %d", r.rec("k").promised)
	}
}

func TestAcceptorPhase2aObeysBallot(t *testing.T) {
	r := newLoneReplica(t, 5)
	master := simnet.Addr{Region: "b", Name: "replica"}

	// Promise at 5; a phase-2a at 4 must be refused (no pending added).
	r.exec("", phase1aMsg{Key: "k", Ballot: 5, Master: master})
	r.exec("", phase2aBatchMsg{Master: master, Items: []phase2aItem{{Txn: 3, Key: "k", Ballot: 4, Option: setOp("k", 0)}}})
	if r.PendingCount("k") != 0 {
		t.Error("stale-ballot phase2a accepted")
	}
	// At 5 it is accepted.
	r.exec("", phase2aBatchMsg{Master: master, Items: []phase2aItem{{Txn: 3, Key: "k", Ballot: 5, Option: setOp("k", 0)}}})
	if r.PendingCount("k") != 1 {
		t.Error("current-ballot phase2a refused")
	}
	// A higher-ballot conflicting phase2a evicts the lower one.
	r.exec("", phase2aBatchMsg{Master: master, Items: []phase2aItem{{Txn: 4, Key: "k", Ballot: 6, Option: setOp("k", 0)}}})
	rc := r.rec("k")
	if len(rc.pending) != 1 || rc.pending[0].txn != 4 {
		t.Errorf("eviction failed: %+v", rc.pending)
	}
}

func TestReplicaFastVoteOnDecidedTxn(t *testing.T) {
	r := newLoneReplica(t, 5)
	coord := simnet.Addr{Region: "a", Name: "coord"}

	// Decide arrives before the proposal (reordering): the late proposal
	// must not plant a pending.
	r.exec("", decideMsg{Txn: 11, Commit: false, Options: []txn.Op{setOp("k", 0)}})
	r.exec("", proposeMsg{Txn: 11, Coord: coord, Options: []txn.Op{setOp("k", 0)}})
	if r.PendingCount("k") != 0 {
		t.Error("decided txn re-planted a pending option")
	}
	// And the decide is idempotent.
	r.exec("", decideMsg{Txn: 11, Commit: false, Options: []txn.Op{setOp("k", 0)}})
	if r.DecidedCount() != 1 {
		t.Errorf("decided count %d", r.DecidedCount())
	}
}

func TestDecideAppliesWithoutPriorProposal(t *testing.T) {
	r := newLoneReplica(t, 5)
	r.SeedInt("n", 10, 0, 100)
	// The proposal was lost, but the decide carries the options: the
	// replica must still converge.
	r.exec("", decideMsg{Txn: 12, Commit: true, Options: []txn.Op{addOp("n", 5)}})
	v, ok := r.ReadLocal("n")
	if !ok || v.Int != 15 || v.Version != 1 {
		t.Errorf("value %+v", v)
	}
}
