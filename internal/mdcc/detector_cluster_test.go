package mdcc_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/mdcc"
	"planet/internal/regions"
	"planet/internal/simnet"
)

// TestDetectorPartition is the failure detector on the virtual clock, seeds
// 1–20: a three-region fast-mode cluster, whose fast quorum needs every
// replica, has Ireland cut off both ways from the gateway, California. The
// gateway's first fast submit burns its commit timeout; from then on its
// coordinator holds Ireland down, and each submit degrades to the classic
// path and sheds speculation, committing where its master is reachable and
// timing out where Ireland masters it. After the heal a probe's answer
// marks Ireland up and fast commits resume. Each seed logs a fingerprint of
// its run, which verify.sh requires bit-identical across runs.
func TestDetectorPartition(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Logf("fingerprint seed=%d %x", seed, sha256.Sum256([]byte(detectorPartition(t, seed))))
		})
	}
}

// detectorPartition runs one seed of TestDetectorPartition and returns its
// fingerprint: every commit's outcome and duration, and the gateway
// coordinator's transitions, each at its offset from the cut.
func detectorPartition(t *testing.T, seed int64) string {
	const gw, cut = regions.California, regions.Ireland
	c := newTestCluster(t, cluster.Config{Topology: regions.Three(), Seed: seed})
	var reachable, cutOff []string
	for i := 0; len(reachable) < 8 || len(cutOff) < 1; i++ {
		k := fmt.Sprintf("k%d", i)
		c.SeedInt(k, 0, 0, 1<<30)
		if mdcc.MasterFor(k, c.Regions()) == cut {
			cutOff = append(cutOff, k)
		} else {
			reachable = append(reachable, k)
		}
	}
	db, err := planet.Open(planet.Config{Cluster: c, Mode: mdcc.ModeFast})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := db.Session(gw)
	if err != nil {
		t.Fatal(err)
	}
	coord := c.Coordinator(gw)
	clk, timeout := c.Clock(), c.CommitTimeout()
	start := clk.Now()
	var fp strings.Builder
	coord.SetPeerObserver(func(r simnet.Region, down bool) {
		fmt.Fprintf(&fp, "%s down=%v at %v\n", r, down, clk.Now().Sub(start))
	})
	next, shed := 0, 0
	// commit adds 1 to key, speculating at any likelihood unless the
	// gateway's region sheds speculation, which it counts in shed.
	commit := func(what, key string) (bool, error) {
		t.Helper()
		tx := sess.Begin()
		tx.Add(key, 1)
		h, err := tx.Commit(planet.CommitOptions{SpeculateAt: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		o := h.Wait()
		if !o.Speculated {
			shed++
		}
		fmt.Fprintf(&fp, "%s %s: %v/%v speculated=%v in %v\n", what, key, o.Committed, o.Err, o.Speculated, o.Decided.Sub(o.Submitted))
		return o.Committed, o.Err
	}
	nextKey := func() string {
		next++
		return reachable[next%len(reachable)]
	}

	if ok, err := commit("warm-up", nextKey()); !ok {
		t.Fatalf("warm-up: %v", err)
	}
	c.Net.SetLinkCut(gw, cut, true)
	c.Net.SetLinkCut(cut, gw, true)
	start = clk.Now()
	if ok, err := commit("first across the cut", nextKey()); ok || !errors.Is(err, mdcc.ErrTimeout) {
		t.Fatalf("the first fast submit across the cut: committed=%v err=%v, want a commit timeout", ok, err)
	}
	if took := clk.Now().Sub(start); took != timeout {
		t.Errorf("the first submit across the cut resolved after %v, want the %v commit timeout", took, timeout)
	}
	for i := 0; i < 4; i++ {
		if ok, err := commit("degraded", nextKey()); !ok {
			t.Fatalf("degraded submit %d on a reachable master: %v", i, err)
		}
	}
	if ok, err := commit("degraded, master cut off", cutOff[0]); ok || !errors.Is(err, mdcc.ErrTimeout) {
		t.Fatalf("a submit mastered across the cut: committed=%v err=%v, want a commit timeout", ok, err)
	}
	if coord.DegradedSubmits != 5 || shed != 5 {
		t.Errorf("DegradedSubmits=%d, %d submits shed speculation; want 5 and 5", coord.DegradedSubmits, shed)
	}
	if db.RegionDegraded(regions.Virginia) {
		t.Error("Virginia, whose coordinator sent Ireland nothing, counts as degraded")
	}

	c.Net.SetLinkCut(gw, cut, false)
	c.Net.SetLinkCut(cut, gw, false)
	eventually(t, c, 3*timeout, "a probe's answer marks Ireland up", func() bool {
		commit("after the heal", nextKey())
		return len(coord.DownReplicas()) == 0
	})
	degraded, wasShed := coord.DegradedSubmits, shed
	for i := 0; i < 3; i++ {
		if ok, err := commit("fast again", nextKey()); !ok {
			t.Fatalf("fast submit %d after the heal: %v", i, err)
		}
	}
	if coord.DegradedSubmits != degraded || shed != wasShed {
		t.Errorf("submits after the region came up degraded (%d -> %d) or shed speculation (%d -> %d)",
			degraded, coord.DegradedSubmits, wasShed, shed)
	}
	fmt.Fprintf(&fp, "degraded=%d shed=%d timeouts=%d\n", coord.DegradedSubmits, shed, coord.Timeouts)
	return fp.String()
}
