package planet

// White-box tests for the robustness layer: the per-region health ring,
// speculation shedding, context-aware waits, and retry backoff shaping.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"planet/internal/cluster"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/vclock"
)

func TestRegionHealthWindow(t *testing.T) {
	h := newRegionHealth(HealthPolicy{Window: 4, MaxTimeoutRate: 0.5, MinSamples: 2})

	if h.degraded() {
		t.Fatal("empty tracker reported degraded")
	}
	h.observe(true)
	if h.degraded() {
		t.Fatal("degraded below MinSamples")
	}
	h.observe(true)
	if !h.degraded() {
		t.Fatal("2/2 timeouts at threshold 0.5 not degraded")
	}

	// Healthy outcomes push the rate down; once the window slides past the
	// timeouts the region recovers.
	for i := 0; i < 4; i++ {
		h.observe(false)
	}
	if h.degraded() {
		rate, n := h.rate()
		t.Fatalf("still degraded after recovery: rate=%.2f n=%d", rate, n)
	}
	if rate, n := h.rate(); rate != 0 || n != 4 {
		t.Fatalf("rate=%.2f n=%d, want 0.00 n=4 (timeouts evicted)", rate, n)
	}

	// A nil tracker (health disabled) is inert.
	var nilH *regionHealth
	nilH.observe(true)
	if nilH.degraded() {
		t.Fatal("nil tracker degraded")
	}
}

// openWhiteboxDB builds a compressed-time cluster + DB inside the package,
// where tests can reach unexported state like db.health. A nil clk gives the
// cluster its own virtual clock.
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

func TestSpeculationShedWhenDegraded(t *testing.T) {
	db := openWhiteboxDB(t, Config{
		Health: HealthPolicy{Window: 8, MaxTimeoutRate: 0.5, MinSamples: 4},
	}, nil)
	db.Cluster().SeedInt("n", 0, 0, 1<<30)
	region := regions.California
	s, err := db.Session(region)
	if err != nil {
		t.Fatal(err)
	}

	commit := func() (*Handle, bool) {
		t.Helper()
		tx := s.Begin()
		tx.Add("n", 1)
		spec := false
		h, err := tx.Commit(CommitOptions{
			SpeculateAt:   0.01, // any likelihood clears this
			OnSpeculative: func(Progress) { spec = true },
		})
		if err != nil {
			t.Fatal(err)
		}
		out := h.Wait()
		if !out.Committed {
			t.Fatalf("commit failed: %v", out.Err)
		}
		return h, spec
	}

	// Healthy region: the near-zero threshold speculates immediately.
	if _, spec := commit(); !spec {
		t.Fatal("healthy region did not speculate")
	}

	// Saturate the region's window with timeouts: degraded.
	for i := 0; i < 8; i++ {
		db.health[region].observe(true)
	}
	if !db.RegionDegraded(region) {
		t.Fatal("region not degraded after all-timeout window")
	}
	if db.RegionDegraded(regions.Ireland) {
		t.Fatal("unrelated region degraded")
	}
	h, spec := commit()
	if spec {
		t.Fatal("degraded region still speculated")
	}
	if h.Wait().Speculated {
		t.Fatal("outcome marked speculated after shed")
	}
	if got := db.SpeculationShed(); got != 1 {
		t.Fatalf("SpeculationShed=%d, want 1", got)
	}

	// The successful commits above (plus healthy observations) wash the
	// timeouts out of the window; speculation comes back.
	for i := 0; i < 8; i++ {
		db.health[region].observe(false)
	}
	if _, spec := commit(); !spec {
		t.Fatal("recovered region did not speculate")
	}
}

// TestSpeculationShedWhenPeerCut runs three cluster nodes over real TCP in
// this process. A three-region fast quorum needs every replica, so once the
// gateway's transport cuts one peer each fast submit goes classic, and the
// gateway's region must count as degraded and shed speculation until the
// link heals. No peer goes down: a cut drops frames without touching peer
// health.
func TestSpeculationShedWhenPeerCut(t *testing.T) {
	regionList := []simnet.Region{"eu-west", "us-east", "us-west"}
	const gwRegion, cutRegion = simnet.Region("us-west"), simnet.Region("eu-west")
	peers := make(map[simnet.Region]string, len(regionList))
	for _, r := range regionList {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[r] = l.Addr().String()
		l.Close()
	}
	var gw *cluster.Cluster
	for _, r := range regionList {
		// The gateway masters every key, so the classic path needs only the
		// gateway and us-east while eu-west is cut.
		c, err := cluster.NewNode(cluster.NodeConfig{
			Region: r, Peers: peers, MasterRegion: gwRegion, CommitTimeout: 20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		for _, k := range []string{"k0", "k1", "k2"} {
			c.SeedInt(k, 0, 0, 1<<30)
		}
		if r == gwRegion {
			gw = c
		}
	}
	db, err := Open(Config{Cluster: gw})
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.Session(gwRegion)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(key string) {
		t.Helper()
		tx := s.Begin()
		tx.Add(key, 1)
		h, err := tx.Commit(CommitOptions{SpeculateAt: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if out, err := h.WaitCtx(ctx); err != nil || !out.Committed {
			t.Fatalf("commit of %s: %+v, %v", key, out, err)
		}
	}

	commit("k0")
	if db.RegionDegraded(gwRegion) || db.SpeculationShed() != 0 {
		t.Fatalf("healthy fleet: degraded=%v shed=%d, want false and 0", db.RegionDegraded(gwRegion), db.SpeculationShed())
	}

	gw.RealNet.CutPeer(cutRegion, true)
	if !db.RegionDegraded(gwRegion) {
		t.Fatal("gateway region not degraded with the fast quorum cut off")
	}
	commit("k1")
	if got := db.SpeculationShed(); got != 1 {
		t.Fatalf("SpeculationShed=%d after a submit with a peer cut, want 1", got)
	}

	gw.RealNet.CutPeer(cutRegion, false)
	if db.RegionDegraded(gwRegion) {
		t.Fatal("gateway region still degraded after the link healed")
	}
	commit("k2")
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
