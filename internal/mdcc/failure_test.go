package mdcc_test

import (
	"testing"
	"time"

	"planet/internal/cluster"
	"planet/internal/mdcc"
	"planet/internal/regions"
	"planet/internal/txn"
)

// TestDecideCarriedConvergence isolates one region during a commit and
// verifies the survivors converge. The isolated replica misses both the
// proposal and the decision; it stays stale (rejoining replicas recover
// via quorum reads in this design — replica state transfer is out of
// scope and documented).
func TestDecideCarriedConvergence(t *testing.T) {
	c := newTestCluster(t, cluster.Config{})
	c.SeedBytes("k", []byte("v0"))
	c.Quiesce(5 * time.Second)

	c.Net.SetRegionDown(regions.Tokyo, true)
	committed, err, _ := submit(t, c, regions.California, []txn.Op{
		{Kind: txn.OpSet, Key: "k", Value: []byte("v1"), ReadVersion: 0},
	}, mdcc.ModeFast)
	if !committed || err != nil {
		t.Fatalf("commit with one region down: committed=%v err=%v", committed, err)
	}
	if !c.Quiesce(5 * time.Second) {
		t.Fatal("no quiesce")
	}

	for _, r := range c.Regions() {
		v, _ := c.Replica(r).ReadLocal("k")
		if r == regions.Tokyo {
			if string(v.Bytes) != "v0" {
				t.Errorf("isolated replica unexpectedly advanced to %q", v.Bytes)
			}
			continue
		}
		if string(v.Bytes) != "v1" {
			t.Errorf("%s: %q, want v1", r, v.Bytes)
		}
	}
}

// TestPendingTTLEvictsOrphans simulates a lost decide: a transaction's
// pending option is planted and its abort never arrives. After the TTL the
// record must accept new writes again.
func TestPendingTTLEvictsOrphans(t *testing.T) {
	// Aggressive TTL (200ms WAN = 2ms scaled at 0.01).
	c := newTestCluster(t, cluster.Config{PendingTTL: 200 * time.Millisecond})
	c.SeedBytes("k", []byte("v0"))
	c.Quiesce(5 * time.Second)

	// Plant orphan pendings deterministically: submit from California and
	// partition California in the same breath. Submit sends the proposals
	// synchronously, and the emulator checks partitions by *destination*
	// at delivery time — so the in-flight proposals still land and plant
	// pendings at the other replicas, while every vote (destination
	// California) and the eventual timeout-abort decide (source region
	// down at send time) is dropped.
	sink := newWaitSink(c)
	coord := c.Coordinator(regions.California)
	if err := coord.Submit(txn.NewID(), []txn.Op{
		{Kind: txn.OpSet, Key: "k", Value: []byte("orphan"), ReadVersion: 0},
	}, mdcc.ModeFast, sink); err != nil {
		t.Fatal(err)
	}
	c.Net.SetRegionDown(regions.California, true)
	// The proposals deliver; pendings appear at the reachable replicas.
	eventually(t, c, 5*time.Second, "pending option planted", func() bool {
		return c.Replica(regions.Virginia).PendingCount("k") > 0
	})
	sink.wait(t) // timeout abort at the coordinator

	// Drain stragglers (proposals still in flight re-plant pendings with
	// fresh timestamps), then wait well past the TTL so eviction is due
	// everywhere, and write from Virginia.
	if !c.Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	c.Clock().Sleep(50 * time.Millisecond) // ≫ scaled TTL (2ms)
	committed, err, _ := submit(t, c, regions.Virginia, []txn.Op{
		{Kind: txn.OpSet, Key: "k", Value: []byte("v1"), ReadVersion: 0},
	}, mdcc.ModeFast)
	if !committed {
		t.Fatalf("write after TTL still blocked: %v", err)
	}
}

// TestHealedRegionServesNewCommits verifies a previously partitioned
// region participates normally once healed: new commits reach it.
func TestHealedRegionServesNewCommits(t *testing.T) {
	c := newTestCluster(t, cluster.Config{})
	c.SeedInt("n", 0, 0, 1000)
	c.Quiesce(5 * time.Second)

	c.Net.SetRegionDown(regions.Ireland, true)
	if ok, err, _ := submit(t, c, regions.Virginia, []txn.Op{
		{Kind: txn.OpAdd, Key: "n", Delta: 1},
	}, mdcc.ModeFast); !ok {
		t.Fatalf("commit during partition: %v", err)
	}
	c.Net.SetRegionDown(regions.Ireland, false)

	if ok, err, _ := submit(t, c, regions.Ireland, []txn.Op{
		{Kind: txn.OpAdd, Key: "n", Delta: 10},
	}, mdcc.ModeFast); !ok {
		t.Fatalf("commit from healed region: %v", err)
	}
	if !c.Quiesce(5 * time.Second) {
		t.Fatal("no quiesce")
	}
	// Ireland missed the first delta but applied the second; the other
	// replicas hold both.
	v, _ := c.Replica(regions.Ireland).ReadLocal("n")
	if v.Int != 10 {
		t.Errorf("healed replica n=%d, want 10", v.Int)
	}
	v, _ = c.Replica(regions.Virginia).ReadLocal("n")
	if v.Int != 11 {
		t.Errorf("virginia n=%d, want 11", v.Int)
	}
	// Anti-entropy closes the gap.
	if _, err := c.Replica(regions.Ireland).SyncFrom(c.Replica(regions.Virginia).Addr(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	v, _ = c.Replica(regions.Ireland).ReadLocal("n")
	if v.Int != 11 {
		t.Errorf("after sync, healed replica n=%d, want 11", v.Int)
	}
}

// TestSustainedLossSafety runs a lossy workload and re-checks the core
// safety property: never two conflicting commits, surviving replicas agree
// where they heard the decisions.
func TestSustainedLossSafety(t *testing.T) {
	c := newTestCluster(t, cluster.Config{
		LossRate: 0.05, Seed: 77, CommitTimeout: 1 * time.Second,
	})
	c.SeedInt("n", 0, -1_000_000, 1_000_000)
	c.Quiesce(5 * time.Second)

	var committedDelta int64
	for i := 0; i < 30; i++ {
		from := c.Regions()[i%5]
		ok, _, _ := submit(t, c, from, []txn.Op{
			{Kind: txn.OpAdd, Key: "n", Delta: 1},
		}, mdcc.ModeFast)
		if ok {
			committedDelta++
		}
	}
	if !c.Quiesce(10 * time.Second) {
		t.Fatal("no quiesce")
	}
	// Every replica's value must be <= committedDelta (decides can be
	// lost) and at least one replica must have all of them is NOT
	// guaranteed under loss; but no replica may exceed the committed sum
	// and none may go negative.
	maxSeen := int64(-1)
	for _, r := range c.Regions() {
		v, _ := c.Replica(r).ReadLocal("n")
		if v.Int > committedDelta || v.Int < 0 {
			t.Errorf("%s: n=%d outside [0,%d]", r, v.Int, committedDelta)
		}
		if v.Int > maxSeen {
			maxSeen = v.Int
		}
	}
	if committedDelta > 0 && maxSeen == 0 {
		t.Error("commits reported but no replica applied anything")
	}
}

// TestClassicOwnershipSticks verifies that once a key goes classic, fast
// proposals on it are refused and routed through the master (ReasonClassicOwned).
func TestClassicOwnershipSticks(t *testing.T) {
	c := newTestCluster(t, cluster.Config{MasterRegion: regions.Virginia})
	c.SeedBytes("k", []byte("v0"))
	c.Quiesce(5 * time.Second)

	// First classic write takes ownership.
	if ok, err, _ := submit(t, c, regions.California, []txn.Op{
		{Kind: txn.OpSet, Key: "k", Value: []byte("v1"), ReadVersion: 0},
	}, mdcc.ModeClassic); !ok {
		t.Fatalf("classic write: %v", err)
	}
	c.Quiesce(5 * time.Second)

	// A fast write on the owned key must still succeed via fallback.
	ok, err, sink := submit(t, c, regions.California, []txn.Op{
		{Kind: txn.OpSet, Key: "k", Value: []byte("v2"), ReadVersion: 1},
	}, mdcc.ModeFast)
	if !ok {
		t.Fatalf("fast-then-fallback write failed: %v", err)
	}
	kinds := sink.eventKinds()
	if kinds[mdcc.KindFallback] == 0 {
		t.Error("classic-owned key did not force a fallback")
	}
	sawOwned := false
	sink.mu.Lock()
	for _, e := range sink.events {
		if e.Reason == mdcc.ReasonClassicOwned {
			sawOwned = true
		}
	}
	sink.mu.Unlock()
	if !sawOwned {
		t.Error("no classic-owned rejection reported")
	}
}
