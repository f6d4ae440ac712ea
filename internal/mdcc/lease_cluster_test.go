package mdcc_test

// Cluster-level lease coverage: leased mastership on the simulated WAN —
// boot acquisition, failover after crashing the lease holder, deposed
// reconvergence after restart, and a virtual-clock determinism gate with
// leases enabled.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"planet/internal/cluster"
	"planet/internal/mdcc"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/txn"
)

// leaseEvents collects OnLeaseEvent callbacks per observing region.
type leaseEvents struct {
	mu  sync.Mutex
	evs map[simnet.Region][]mdcc.LeaseEvent
}

func newLeaseEvents() *leaseEvents {
	return &leaseEvents{evs: make(map[simnet.Region][]mdcc.LeaseEvent)}
}

func (l *leaseEvents) record(r simnet.Region, ev mdcc.LeaseEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evs[r] = append(l.evs[r], ev)
}

func (l *leaseEvents) count(kind mdcc.LeaseEventKind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, evs := range l.evs {
		for _, ev := range evs {
			if ev.Kind == kind {
				n++
			}
		}
	}
	return n
}

// waitHeld waits until region r's replica holds keyspace ks's lease.
func waitHeld(t *testing.T, c *cluster.Cluster, r, ks simnet.Region, timeout time.Duration) {
	t.Helper()
	eventually(t, c, timeout, fmt.Sprintf("%s acquires the %s lease", r, ks), func() bool {
		return c.Replica(r).HoldsLease(ks)
	})
}

func TestLeaseClusterCommits(t *testing.T) {
	c := newTestCluster(t, cluster.Config{
		MasterRegion: regions.Virginia,
		MasterLeases: true,
		WAL:          true,
	})
	c.SeedInt("acct", 100, 0, 1000)

	// The default holder (the static master region) claims its keyspace at
	// startup; classic proposals bounce NotMaster until then.
	waitHeld(t, c, regions.Virginia, regions.Virginia, 10*time.Second)

	committed, err, _ := submit(t, c, regions.California, []txn.Op{
		{Kind: txn.OpAdd, Key: "acct", Delta: 5},
	}, mdcc.ModeFast)
	if !committed || err != nil {
		t.Fatalf("fast commit under leases: committed=%v err=%v", committed, err)
	}
	committed, err, _ = submit(t, c, regions.Ireland, []txn.Op{
		{Kind: txn.OpAdd, Key: "acct", Delta: -3},
	}, mdcc.ModeClassic)
	if !committed || err != nil {
		t.Fatalf("classic commit under leases: committed=%v err=%v", committed, err)
	}
}

// TestLeaseClusterFailover crashes the lease-holding master on the simnet
// cluster: a survivor must take the keyspace over once the lease lapses,
// classic commits against the dead master's keys must flow again, and the
// restarted corpse must converge on the new holder instead of reclaiming
// mastership.
func TestLeaseClusterFailover(t *testing.T) {
	events := newLeaseEvents()
	c := newTestCluster(t, cluster.Config{
		MasterRegion: regions.Virginia,
		MasterLeases: true,
		WAL:          true,
		OnLeaseEvent: events.record,
	})
	c.SeedInt("acct", 100, 0, 1000)
	ks := regions.Virginia

	waitHeld(t, c, regions.Virginia, ks, 10*time.Second)
	committed, err, _ := submit(t, c, regions.California, []txn.Op{
		{Kind: txn.OpAdd, Key: "acct", Delta: 1},
	}, mdcc.ModeClassic)
	if !committed || err != nil {
		t.Fatalf("warmup commit: committed=%v err=%v", committed, err)
	}

	// Kill the holder. Its lease lapses on the survivors' clocks and the
	// first survivor in stagger-rank order claims the next epoch.
	if err := c.CrashReplica(regions.Virginia); err != nil {
		t.Fatal(err)
	}
	var heir simnet.Region
	eventually(t, c, 20*time.Second, "a survivor takes over the dead master's lease", func() bool {
		for _, r := range c.Regions() {
			if r != regions.Virginia && c.Replica(r).HoldsLease(ks) {
				heir = r
				return true
			}
		}
		return false
	})
	t.Logf("lease moved %s -> %s", regions.Virginia, heir)
	if events.count(mdcc.LeaseTakeover) == 0 {
		t.Error("takeover happened but no LeaseTakeover event was observed")
	}
	if got := c.Replica(heir).LeaseTakeoverCount(); got < 1 {
		t.Errorf("heir's LeaseTakeoverCount = %d, want >= 1", got)
	}

	// The dead master's keys commit under the new lease, corpse still down.
	commitEventually(t, c, regions.California, "acct", 2, "post-takeover commit")

	// Restart the corpse: WAL replay hands back its stale held epoch, the
	// re-acquire rounds are nacked, and its granted view must converge on
	// the heir (it never reclaims while the heir keeps renewing).
	if err := c.RestartReplica(regions.Virginia); err != nil {
		t.Fatal(err)
	}
	eventually(t, c, 20*time.Second, "restarted master converges on the heir", func() bool {
		holder, ok := c.Replica(regions.Virginia).LeaseHolder(ks)
		return ok && holder == heir
	})
	if c.Replica(regions.Virginia).HoldsLease(ks) {
		t.Error("restarted deposed master claims to hold the lease")
	}
	commitEventually(t, c, regions.California, "acct", 3, "post-restart commit")
}

// commitEventually retries a classic add until it commits — aborts are
// legitimate while an epoch transition is settling (stale routes bounce,
// the new master recovers per-key state), but liveness must return.
func commitEventually(t *testing.T, c *cluster.Cluster, from simnet.Region, key string, delta int64, what string) {
	t.Helper()
	clk := c.Clock()
	deadline := clk.Now().Add(20 * time.Second)
	for {
		committed, err, _ := submit(t, c, from, []txn.Op{
			{Kind: txn.OpAdd, Key: key, Delta: delta},
		}, mdcc.ModeClassic)
		if committed && err == nil {
			return
		}
		if clk.Now().After(deadline) {
			t.Fatalf("%s: never committed (last: committed=%v err=%v)", what, committed, err)
		}
		clk.Sleep(10 * time.Millisecond)
	}
}

// leaseFingerprint runs a fixed workload on a lease-enabled virtual-time
// cluster and folds everything observable into one string: per-txn
// outcomes, final replicated values, and each region's final lease view.
// Txn IDs are process-global and excluded.
func leaseFingerprint(t *testing.T, seed int64) string {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Seed:         seed,
		MasterRegion: regions.Virginia,
		MasterLeases: true,
		WAL:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clk := c.Clock()

	keys := []string{"fp-a", "fp-b", "fp-c"}
	for _, k := range keys {
		c.SeedInt(k, 100, 0, 1000)
	}
	var b strings.Builder
	froms := c.Regions()
	for i := 0; i < 24; i++ {
		mode := mdcc.ModeFast
		if i%3 == 0 {
			mode = mdcc.ModeClassic
		}
		from := froms[i%len(froms)]
		committed, err, _ := submit(t, c, from, []txn.Op{{Kind: txn.OpAdd, Key: keys[i%len(keys)], Delta: int64(i%7 - 3)}}, mode)
		fmt.Fprintf(&b, "txn%d:%v/%v\n", i, committed, err != nil)
	}
	// Let straggler decide messages land at every replica. A virtual sleep
	// advances deterministically; renewal traffic keeps flowing but does
	// not change epochs, so the state read below is a pure function of the
	// seed.
	clk.Sleep(30 * time.Second)

	regionList := append([]simnet.Region(nil), c.Regions()...)
	sort.Slice(regionList, func(i, j int) bool { return regionList[i] < regionList[j] })
	for _, r := range regionList {
		for _, k := range keys {
			v, okv := c.Replica(r).ReadLocal(k)
			fmt.Fprintf(&b, "%s/%s:%v@%d/%v\n", r, k, v.Int, v.Version, okv)
		}
		holder, epoch, _ := c.Replica(r).LeaseView(regions.Virginia)
		fmt.Fprintf(&b, "%s/lease:%s@%d\n", r, holder, epoch)
	}
	return b.String()
}

// TestLeaseVirtualDeterminism is the lease-enabled determinism gate: the
// same seed on the virtual clock must produce a bit-identical fingerprint
// — txn outcomes, final state, and lease views — across runs, or leases
// have introduced a nondeterminism bug. verify.sh runs it repeatedly.
func TestLeaseVirtualDeterminism(t *testing.T) {
	a := leaseFingerprint(t, 77)
	b := leaseFingerprint(t, 77)
	if a != b {
		t.Fatalf("same seed, different outcomes with leases enabled:\n--- run A\n%s\n--- run B\n%s", a, b)
	}
}
