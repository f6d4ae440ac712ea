package mdcc

import (
	"sync"
	"testing"
	"time"

	"planet/internal/simnet"
	"planet/internal/txn"
)

// leaseEventLog records lease transitions delivered to the OnEvent observer.
type leaseEventLog struct {
	mu  sync.Mutex
	evs []LeaseEvent
}

func (l *leaseEventLog) record(ev LeaseEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evs = append(l.evs, ev)
}

func (l *leaseEventLog) kinds() []LeaseEventKind {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LeaseEventKind, len(l.evs))
	for i, ev := range l.evs {
		out[i] = ev.Kind
	}
	return out
}

// newLeasedReplica builds a lone replica (peers exist only as addresses,
// like newLoneReplica) with leases enabled on a single keyspace "a" — the
// replica's own region, so it is the keyspace's default holder. It runs no
// lease tick: the tests start each round with AcquireLease.
func newLeasedReplica(t *testing.T, n int, term time.Duration, w *WAL) (*Replica, *leaseEventLog) {
	t.Helper()
	net := newLoneNet(t)
	peers := make([]simnet.Addr, n)
	for i := range peers {
		peers[i] = simnet.Addr{Region: regionOf(i), Name: "replica"}
	}
	log := &leaseEventLog{}
	r := NewReplica(ReplicaConfig{Net: net, Addr: peers[0], Peers: peers, WAL: w,
		Leases: &LeaseConfig{
			Term:       term,
			KeyspaceOf: func(string) simnet.Region { return "a" },
			OnEvent:    log.record,
		}})
	return r, log
}

// grantReply fabricates an acceptor's OK reply to this replica's round.
func grantReply(ks simnet.Region, epoch uint64, holder simnet.Region, from int) leaseGrantMsg {
	return leaseGrantMsg{Keyspace: ks, Epoch: epoch, OK: true,
		CurEpoch: epoch, CurHolder: holder, Region: regionOf(from)}
}

func TestLeaseAcquireAndRenew(t *testing.T) {
	r, log := newLeasedReplica(t, 3, time.Second, nil)

	// A round self-grants but one vote of three is not a quorum.
	r.AcquireLease("a")
	if r.HoldsLease("a") {
		t.Fatal("held the lease on a single self-grant")
	}
	if holder, epoch, _ := r.LeaseView("a"); holder != "a" || epoch != 1 {
		t.Fatalf("provisional view = %s@%d, want a@1", holder, epoch)
	}
	// A fresh round is already in flight: re-acquiring is a no-op, the
	// proposed epoch does not inflate.
	r.AcquireLease("a")
	if _, epoch, _ := r.LeaseView("a"); epoch != 1 {
		t.Fatalf("re-acquire during a fresh round bumped the epoch to %d", epoch)
	}

	// The second grant reaches the majority of 2/3: lease held, epoch 1.
	r.exec(grantReply("a", 1, "a", 1))
	if !r.HoldsLease("a") {
		t.Fatal("majority grant did not take the lease")
	}

	// Renewal: the holder repeats the round at the held epoch.
	r.AcquireLease("a")
	r.exec(grantReply("a", 1, "a", 1))
	if !r.HoldsLease("a") {
		t.Fatal("renewal dropped the lease")
	}
	if _, epoch, _ := r.LeaseView("a"); epoch != 1 {
		t.Fatalf("renewal changed the epoch to %d, want 1", epoch)
	}

	want := []LeaseEventKind{LeaseAcquired, LeaseRenewed}
	got := log.kinds()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("event kinds = %v, want %v", got, want)
	}
}

func TestLeaseAcceptorGrantRules(t *testing.T) {
	r, _ := newLeasedReplica(t, 3, time.Second, nil)
	now := r.clk.Now()
	req := func(epoch uint64, holder simnet.Region, ttl time.Duration) leaseRequestMsg {
		return leaseRequestMsg{Keyspace: "a", Epoch: epoch, Holder: holder,
			ExpiresUnixNano: now.Add(ttl).UnixNano(),
			From:            simnet.Addr{Region: holder, Name: "replica"}}
	}

	// Epoch 1 goes to b.
	r.exec(req(1, "b", 40*time.Millisecond))
	if holder, epoch, _ := r.LeaseView("a"); holder != "b" || epoch != 1 {
		t.Fatalf("view = %s@%d, want b@1", holder, epoch)
	}
	// At most one holder per epoch: c cannot also have epoch 1.
	r.exec(req(1, "c", time.Second))
	if holder, _, _ := r.LeaseView("a"); holder != "b" {
		t.Fatalf("epoch 1 regranted to %s", holder)
	}
	// A new epoch is refused while the current lease is live...
	r.exec(req(2, "c", time.Second))
	if holder, epoch, _ := r.LeaseView("a"); holder != "b" || epoch != 2 {
		if epoch == 2 {
			t.Fatalf("epoch 2 granted to %s over b's live lease", holder)
		}
	}
	if _, epoch, _ := r.LeaseView("a"); epoch != 1 {
		t.Fatalf("live lease lost to a higher epoch: now at %d", epoch)
	}
	// ...but the holder itself may bump its own epoch mid-lease.
	r.exec(req(2, "b", 40*time.Millisecond))
	if holder, epoch, _ := r.LeaseView("a"); holder != "b" || epoch != 2 {
		t.Fatalf("same-holder epoch bump refused: view %s@%d", holder, epoch)
	}
	// Renewal: same epoch, same holder, later expiry.
	_, _, before := r.LeaseView("a")
	r.exec(req(2, "b", 80*time.Millisecond))
	if _, _, after := r.LeaseView("a"); !after.After(before) {
		t.Fatal("renewal did not extend expiry")
	}
	// Epoch 0 is never a lease.
	r.exec(req(0, "c", time.Second))
	if holder, _, _ := r.LeaseView("a"); holder != "b" {
		t.Fatal("epoch-0 request changed the lease")
	}

	// Once b's lease lapses on this clock, c's takeover epoch is granted.
	r.clk.Sleep(100 * time.Millisecond)
	r.exec(req(3, "c", time.Second))
	if holder, epoch, _ := r.LeaseView("a"); holder != "c" || epoch != 3 {
		t.Fatalf("post-expiry takeover refused: view %s@%d, want c@3", holder, epoch)
	}
}

func TestLeaseTakeoverAfterExpiry(t *testing.T) {
	r, log := newLeasedReplica(t, 3, time.Second, nil)

	// b holds epoch 1 with a short fuse on this replica's clock.
	r.exec(leaseRequestMsg{Keyspace: "a", Epoch: 1, Holder: "b",
		ExpiresUnixNano: r.clk.Now().Add(30 * time.Millisecond).UnixNano(),
		From:            simnet.Addr{Region: "b", Name: "replica"}})

	// Too early: the acceptor (ourselves) refuses epoch 2, and one peer
	// nack on top makes a majority impossible — the round fails and closes.
	r.AcquireLease("a")
	r.exec(leaseGrantMsg{Keyspace: "a", Epoch: 2, OK: false,
		CurEpoch: 1, CurHolder: "b",
		CurExpiresUnixNano: r.clk.Now().Add(30 * time.Millisecond).UnixNano(),
		Region:             regionOf(1)})
	if r.HoldsLease("a") {
		t.Fatal("claimed the lease before the incumbent expired")
	}

	r.clk.Sleep(50 * time.Millisecond)
	r.AcquireLease("a")
	r.exec(grantReply("a", 2, "a", 1))
	if !r.HoldsLease("a") {
		t.Fatal("post-expiry takeover did not win")
	}
	if got := r.LeaseTakeoverCount(); got != 1 {
		t.Fatalf("LeaseTakeoverCount = %d, want 1", got)
	}
	kinds := log.kinds()
	if len(kinds) == 0 || kinds[len(kinds)-1] != LeaseTakeover {
		t.Fatalf("events %v do not end in a takeover", kinds)
	}
}

// TestLeaseFencingAfterReplay is the deposed-master scenario: a master
// crashes holding epoch 1, replays its WAL (lease comes back expired), the
// cluster has moved to epoch 2 under a new holder — and every stale-epoch
// message the corpse might still emit is fenced, while it refuses to
// sequence new proposals itself.
func TestLeaseFencingAfterReplay(t *testing.T) {
	r, log := newLeasedReplica(t, 3, time.Second, NewWAL(nil))
	master := simnet.Addr{Region: "a", Name: "replica"}
	coord := simnet.Addr{Region: "a", Name: "coord"}

	// Hold epoch 1, then crash and replay.
	r.AcquireLease("a")
	r.exec(grantReply("a", 1, "a", 1))
	if !r.HoldsLease("a") {
		t.Fatal("setup: lease not held")
	}
	r.Crash()
	if err := r.Restore(); err != nil {
		t.Fatal(err)
	}

	// The WAL replays both the granted and the held epoch — expired, since
	// clocks do not survive a restart — so the replica is not master again
	// until it re-acquires.
	if r.HoldsLease("a") {
		t.Fatal("replayed lease came back live; replay must expire it")
	}
	var replayed *LeaseInfo
	_, leases, _ := r.LeaseTable()
	for _, li := range leases {
		if li.Keyspace == "a" {
			replayed = &li
			break
		}
	}
	if replayed == nil || replayed.Epoch != 1 || replayed.HeldEpoch != 1 {
		t.Fatalf("replayed lease table = %+v, want epoch 1 / held_epoch 1", replayed)
	}

	// Meanwhile the survivors elected b at epoch 2; its request lands here.
	r.exec(leaseRequestMsg{Keyspace: "a", Epoch: 2, Holder: "b",
		ExpiresUnixNano: r.clk.Now().Add(time.Second).UnixNano(),
		From:            simnet.Addr{Region: "b", Name: "replica"}})
	kinds := log.kinds()
	if len(kinds) == 0 || kinds[len(kinds)-1] != LeaseDeposed {
		t.Fatalf("learning of epoch 2 did not fire a deposal event: %v", kinds)
	}

	// Fencing layer 1: stale-epoch phase 1a is rejected regardless of ballot.
	r.exec(phase1aMsg{Key: "k", Ballot: 9, Master: master, Epoch: 1})
	promised := r.rec("k").promised
	fenced := r.LeaseFenced
	if promised != 0 {
		t.Fatalf("stale-epoch phase1a took the promise (ballot %d)", promised)
	}
	if fenced != 1 {
		t.Fatalf("LeaseFenced = %d, want 1", fenced)
	}

	// Fencing layer 2: stale-epoch phase 2a is refused, and fenced per item.
	r.exec(phase2aBatchMsg{Master: master, Epoch: 1, Items: []phase2aItem{
		{Txn: 1, Key: "k", Ballot: 9, Option: setOp("k", 1)},
		{Txn: 2, Key: "k", Ballot: 9, Option: setOp("k", 2)}}})
	pendings := len(r.rec("k").pending)
	fenced = r.LeaseFenced
	if pendings != 0 {
		t.Fatalf("stale-epoch phase2a accepted %d pendings", pendings)
	}
	if fenced != 3 {
		t.Fatalf("LeaseFenced = %d, want 3", fenced)
	}

	// Forward compat: epoch 0 (a pre-lease sender) passes the fence, and so
	// does the current epoch.
	r.exec(phase1aMsg{Key: "k", Ballot: 9, Master: master, Epoch: 0})
	r.exec(phase1aMsg{Key: "k", Ballot: 10, Master: master, Epoch: 2})
	promised = r.rec("k").promised
	if promised != 10 {
		t.Fatalf("unfenced phase1a promise = %d, want 10", promised)
	}

	// And the deposed master itself bounces proposals instead of sequencing:
	// the coordinator is told NotMaster and no per-key mastership starts.
	r.exec(classicProposeBatchMsg{Txn: 3, Coord: coord, Options: []txn.Op{setOp("k", 3)}})
	ks := r.masters["k"]
	if ks != nil {
		t.Fatal("deposed master sequenced a proposal instead of bouncing it")
	}
}

// TestLeaseRoundRollback drives the restarted-deposed-master convergence:
// a replica replays held epoch 1, proposes higher epochs, collects nacks
// from peers whose live lease is epoch 2 under b — and must converge its
// granted view on b@2 instead of keeping a provisional self-grant at an
// inflated epoch (which would route its own gateway back to itself
// forever).
func TestLeaseRoundRollback(t *testing.T) {
	r, log := newLeasedReplica(t, 3, time.Second, nil)
	nack := func(epoch uint64) leaseGrantMsg {
		return leaseGrantMsg{Keyspace: "a", Epoch: epoch, OK: false,
			CurEpoch: 2, CurHolder: "b",
			CurExpiresUnixNano: r.clk.Now().Add(time.Second).UnixNano(),
			Region:             regionOf(1)}
	}
	nack2 := func(epoch uint64) leaseGrantMsg {
		m := nack(epoch)
		m.Region = regionOf(2)
		return m
	}

	r.applyLeaseEntry(&LeaseRecord{Keyspace: "a", Epoch: 1, Holder: "a", Held: true})

	// Round 1 proposes epoch 2 and self-grants (the replayed lease is
	// expired). Both peers hold b@2 live and nack; the round fails. The
	// epochs are equal, so the rollback cannot apply — but the round must
	// close so the next attempt starts immediately.
	r.AcquireLease("a")
	r.exec(nack(2))
	r.exec(nack2(2))
	if r.HoldsLease("a") {
		t.Fatal("nacked round won the lease")
	}

	// Round 2 proposes epoch 3 above its own provisional grant; the nacks
	// report b@2, a majority is impossible, and the provisional self-grant
	// rolls back to the live view.
	r.AcquireLease("a")
	if _, epoch, _ := r.LeaseView("a"); epoch != 3 {
		t.Fatalf("round 2 proposed epoch %d, want 3", epoch)
	}
	r.exec(nack(3))
	r.exec(nack2(3))
	holder, epoch, _ := r.LeaseView("a")
	if holder != "b" || epoch != 2 {
		t.Fatalf("failed round left view %s@%d, want rollback to b@2", holder, epoch)
	}
	if r.HoldsLease("a") {
		t.Fatal("rolled-back replica still claims mastership")
	}
	kinds := log.kinds()
	if len(kinds) == 0 || kinds[len(kinds)-1] != LeaseDeposed {
		t.Fatalf("rollback did not report the deposal: %v", kinds)
	}
}

// TestLeaseViewAdoption: any grant reply carrying a higher granted view is
// adopted even outside a round, deposing the local holder.
func TestLeaseViewAdoption(t *testing.T) {
	r, log := newLeasedReplica(t, 3, time.Second, nil)
	r.AcquireLease("a")
	r.exec(grantReply("a", 1, "a", 1))
	if !r.HoldsLease("a") {
		t.Fatal("setup: lease not held")
	}

	// A stray reply (no round matches epoch 99) reveals c holds epoch 5.
	r.exec(leaseGrantMsg{Keyspace: "a", Epoch: 99, OK: false,
		CurEpoch: 5, CurHolder: "c",
		CurExpiresUnixNano: r.clk.Now().Add(time.Second).UnixNano(),
		Region:             regionOf(2)})
	holder, epoch, _ := r.LeaseView("a")
	if holder != "c" || epoch != 5 {
		t.Fatalf("higher view not adopted: %s@%d, want c@5", holder, epoch)
	}
	if r.HoldsLease("a") {
		t.Fatal("deposed holder still claims the lease")
	}
	kinds := log.kinds()
	if len(kinds) == 0 || kinds[len(kinds)-1] != LeaseDeposed {
		t.Fatalf("adoption did not fire a deposal event: %v", kinds)
	}
	// The stamped epoch stays at the stale held epoch — deliberately, so
	// peers fence the stragglers.
	stamp := r.leaseEpoch("k")
	if stamp != 1 {
		t.Fatalf("deposed master stamps epoch %d, want its stale held epoch 1", stamp)
	}
}
