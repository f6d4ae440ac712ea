package planet

// White-box tests for the robustness layer: speculation shedding,
// context-aware waits, and retry backoff shaping.

import (
	"context"
	"errors"
	"testing"
	"time"

	"planet/internal/cluster"
	"planet/internal/clustertest"
	"planet/internal/mdcc"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/txn"
	"planet/internal/vclock"
)

// openWhiteboxDB builds a compressed-time cluster + DB inside the package,
// where tests can reach unexported state. A nil clk gives the cluster its
// own virtual clock.
func openWhiteboxDB(t *testing.T, cfg Config, clk vclock.Clock) *DB {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		TimeScale:     0.01,
		Seed:          7,
		CommitTimeout: 60 * time.Second,
		Clock:         clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		c.Quiesce(2 * time.Second)
	})
	cfg.Cluster = c
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSpeculationShedWhenPeerCut runs three cluster nodes over real TCP in
// this process. A three-region fast quorum needs every replica, so once the
// gateway's transport cuts one peer, the first fast submit burns its commit
// timeout, and from then on the gateway's coordinator holds the cut region
// down: each fast submit goes classic, and the gateway's region counts as
// degraded and sheds speculation, until a probe's answer after the heal
// marks the region up again.
func TestSpeculationShedWhenPeerCut(t *testing.T) {
	regionList := []simnet.Region{"eu-west", "us-east", "us-west"}
	const gwRegion, cutRegion = simnet.Region("us-west"), simnet.Region("eu-west")
	const commitTimeout = 300 * time.Millisecond
	// The gateway masters every key, so the classic path needs only the
	// gateway and us-east while eu-west is cut.
	nodes, _, err := clustertest.StartNodes(t, regionList, func(simnet.Region) cluster.NodeConfig {
		return cluster.NodeConfig{MasterRegion: gwRegion, CommitTimeout: commitTimeout}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range nodes {
		for _, k := range []string{"k0", "k1", "k2", "k3"} {
			c.SeedInt(k, 0, 0, 1<<30)
		}
	}
	gw := nodes[gwRegion]
	db, err := Open(Config{Cluster: gw})
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.Session(gwRegion)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(key string) txn.Outcome {
		t.Helper()
		tx := s.Begin()
		tx.Add(key, 1)
		h, err := tx.Commit(CommitOptions{SpeculateAt: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		out, err := h.WaitCtx(ctx)
		if err != nil {
			t.Fatalf("commit of %s: %v", key, err)
		}
		return out
	}
	degraded := func() bool { return db.RegionDegraded(gwRegion) }

	if out := commit("k0"); !out.Committed || degraded() || db.SpeculationShed() != 0 {
		t.Fatalf("healthy fleet: %+v, degraded=%v shed=%d, want a commit, false and 0", out, degraded(), db.SpeculationShed())
	}

	gw.RealNet.CutPeer(cutRegion, true)
	if degraded() {
		t.Fatal("gateway region degraded before any request met the cut")
	}
	if out := commit("k1"); out.Committed || !errors.Is(out.Err, mdcc.ErrTimeout) {
		t.Fatalf("first fast submit across the cut: %+v, want a commit timeout", out)
	}
	if !degraded() {
		t.Fatal("gateway region not degraded after the commit timeout")
	}
	if out := commit("k2"); !out.Committed {
		t.Fatalf("commit with a peer cut: %+v", out)
	}
	if got := db.SpeculationShed(); got != 1 {
		t.Fatalf("SpeculationShed=%d after a submit with a peer cut, want 1", got)
	}
	if got := gw.Coordinator(gwRegion).DegradedSubmits; got != 1 {
		t.Fatalf("DegradedSubmits=%d, want 1", got)
	}

	gw.RealNet.CutPeer(cutRegion, false)
	deadline := time.Now().Add(5 * time.Second)
	for degraded() {
		if time.Now().After(deadline) {
			t.Fatal("gateway region still degraded after the link healed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if out := commit("k3"); !out.Committed {
		t.Fatalf("commit after the heal: %+v", out)
	}
	if got := db.SpeculationShed(); got != 1 {
		t.Fatalf("SpeculationShed=%d after the link healed, want it to stay 1", got)
	}
}

func TestWaitCtxAbandonsWait(t *testing.T) {
	// Paced: the context's deadline is wall time, so virtual time has to
	// follow it for the deadline to land before the commit timeout.
	clk := vclock.NewPaced()
	t.Cleanup(clk.Shutdown)
	db := openWhiteboxDB(t, Config{}, clk)
	db.Cluster().SeedBytes("k", []byte("v0"))
	s, err := db.Session(regions.California)
	if err != nil {
		t.Fatal(err)
	}

	// Blackhole the network so no votes return and the decision stalls
	// until the commit timeout.
	db.Cluster().Net.SetLossRate(1)

	tx := s.Begin()
	tx.Set("k", []byte("v1"))
	h, err := tx.Commit(CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := h.WaitCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitCtx err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("WaitCtx did not return promptly on cancellation")
	}

	// The transaction kept running and still reaches its (timeout) end;
	// Wait after an abandoned WaitCtx still works.
	out := h.Wait()
	if out.Committed {
		t.Fatal("blackholed commit committed")
	}

	// With a live network and no cancellation, WaitCtx == Wait.
	db.Cluster().Net.SetLossRate(0)
	tx = s.Begin()
	tx.Set("k", []byte("v2"))
	h, err = tx.Commit(CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err = h.WaitCtx(context.Background())
	if err != nil || !out.Committed {
		t.Fatalf("WaitCtx = (%+v, %v), want committed", out, err)
	}
}

func TestRunCtxCancelled(t *testing.T) {
	db := openWhiteboxDB(t, Config{}, nil)
	db.Cluster().SeedBytes("k", []byte("v0"))
	s, err := db.Session(regions.California)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	_, err = s.RunCtx(ctx, 3, func(tx *Txn) error {
		calls++
		tx.Set("k", []byte("x"))
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx err = %v, want Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("closure ran %d times under a cancelled context", calls)
	}
}

func TestBackoffShape(t *testing.T) {
	db := openWhiteboxDB(t, Config{}, nil)
	s, err := db.Session(regions.California)
	if err != nil {
		t.Fatal(err)
	}
	scale := db.Cluster().TimeScale()
	for attempt := 0; attempt < 12; attempt++ {
		base := retryBackoffBase << uint(attempt)
		if base > retryBackoffMax || base <= 0 {
			base = retryBackoffMax
		}
		lo := time.Duration(float64(base) * 0.5 * scale)
		hi := time.Duration(float64(base) * 1.5 * scale)
		for trial := 0; trial < 8; trial++ {
			got := s.backoff(attempt)
			if got < lo || got > hi {
				t.Fatalf("backoff(%d) = %v, want in [%v, %v]", attempt, got, lo, hi)
			}
		}
	}
	// Jitter actually varies.
	a, b := s.backoff(3), s.backoff(3)
	for i := 0; i < 16 && a == b; i++ {
		b = s.backoff(3)
	}
	if a == b {
		t.Error("backoff jitter produced identical delays 17 times")
	}
}
