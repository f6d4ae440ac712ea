package mdcc_test

// Cluster-level lease coverage: leased mastership on the simulated WAN —
// boot acquisition, failover after crashing the lease holder, deposed
// reconvergence after restart, and a virtual-clock determinism gate with
// leases enabled.

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
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
		li := c.Replica(regions.Virginia).Lease(ks)
		return li.Epoch != 0 && simnet.Region(li.Holder) == heir
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

// duelSeeds are the seeds the lease-duel repro runs on.
var duelSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 42}

// holders lists the regions among survivors whose replica holds keyspace
// ks's lease.
func holders(c *cluster.Cluster, ks simnet.Region, survivors []simnet.Region) []simnet.Region {
	var out []simnet.Region
	for _, r := range survivors {
		if c.Replica(r).HoldsLease(ks) {
			out = append(out, r)
		}
	}
	return out
}

// crashAfterLostRenewal waits for one renewal by master, cuts master→miss,
// waits for the next lost renewals (which miss does not see), sleeps
// after, and crashes master. It returns the survivors.
func crashAfterLostRenewal(t *testing.T, c *cluster.Cluster, events *leaseEvents, master, miss simnet.Region, lost int, after time.Duration) []simnet.Region {
	t.Helper()
	// Only the holder renews, so every renewal event is master's.
	renewals := func() int { return events.count(mdcc.LeaseRenewed) }
	eventually(t, c, 10*time.Second, "a first renewal", func() bool { return renewals() > 0 })
	c.Net.SetLinkCut(master, miss, true)
	n := renewals()
	eventually(t, c, 10*time.Second, "the renewals miss loses", func() bool { return renewals() >= n+lost })
	c.Clock().Sleep(after)
	if err := c.CrashReplica(master); err != nil {
		t.Fatal(err)
	}
	var survivors []simnet.Region
	for _, r := range c.Regions() {
		if r != master {
			survivors = append(survivors, r)
		}
	}
	return survivors
}

// TestLeaseDuelAfterLostRenewal is the lease duel: the holder's last
// renewal misses California, then the holder dies. California's view
// expires a tick before Ireland's, which California's takeover stagger
// offsets, so both survivors claim epoch 2 on one tick; each self-grants
// before the other's request arrives and refuses it. The grant round's
// tie-break must still elect one holder, and the heir must count the win
// as a takeover.
func TestLeaseDuelAfterLostRenewal(t *testing.T) {
	ks := regions.Virginia
	for _, seed := range duelSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			events := newLeaseEvents()
			c := newTestCluster(t, cluster.Config{
				Topology:     regions.Three(),
				Seed:         seed,
				MasterRegion: regions.Virginia,
				MasterLeases: true,
				WAL:          true,
				OnLeaseEvent: events.record,
			})
			survivors := crashAfterLostRenewal(t, c, events, regions.Virginia, regions.California, 1, 0)
			c.Clock().Sleep(100 * c.ScaleDuration(cluster.DefaultLeaseTerm))

			got := holders(c, ks, survivors)
			if len(got) != 1 {
				for _, r := range survivors {
					holder, epoch, _ := c.Replica(r).LeaseView(ks)
					t.Logf("%s's view: %s@%d", r, holder, epoch)
				}
				t.Fatalf("holders after 100 terms: %v, want exactly one", got)
			}
			heir := got[0]
			if n := events.count(mdcc.LeaseTakeover); n != 1 {
				t.Errorf("%d LeaseTakeover events, want 1", n)
			}
			events.mu.Lock()
			for _, ev := range events.evs[heir] {
				if ev.Kind == mdcc.LeaseAcquired {
					t.Errorf("heir %s reported %v at epoch %d, want a takeover", heir, ev.Kind, ev.Epoch)
				}
			}
			events.mu.Unlock()
			if n := c.Replica(heir).LeaseTakeoverCount(); n != 1 {
				t.Errorf("heir's LeaseTakeoverCount = %d, want 1", n)
			}
		})
	}
}

// TestLeaseElectionSweep runs the lost renewal of the duel repro over
// three and five regions, with every survivor as the one that misses the
// renewal, and ten crash instants spread over one tick (term/3) after it.
// Every run must elect exactly one holder within 3 terms of the crash,
// keep it, and count one takeover.
func TestLeaseElectionSweep(t *testing.T) {
	electionSweep(t, []regions.Topology{regions.Three(), regions.Five()}, 1, 3)
}

// TestLeaseDuelAfterLostTerm is the duel with the claims a tick apart:
// the survivor that misses a full term of renewals (three) claims while
// the other's view of the dead holder is still live, and is refused; the
// other claims the same epoch a tick later. Over three regions, with
// either survivor missing the renewals and ten crash instants over a tick,
// one holder must be elected within 4 terms, whichever sorts first.
func TestLeaseDuelAfterLostTerm(t *testing.T) {
	electionSweep(t, []regions.Topology{regions.Three()}, 3, 4)
}

// electionSweep runs, on each topology, every survivor as the one that
// loses the holder's next lost renewals, and ten crash instants spread over
// one tick (term/3) after them. Every run must elect exactly one holder
// within bound terms of the crash, keep it, and count one takeover; the
// slowest run is logged.
func electionSweep(t *testing.T, topos []regions.Topology, lost int, bound time.Duration) {
	ks := regions.Virginia
	var worst time.Duration
	var worstRun string
	var term time.Duration
	for _, topo := range topos {
		for _, miss := range topo.Regions {
			if miss == ks {
				continue
			}
			for i := 0; i < 10; i++ {
				name := fmt.Sprintf("%d/miss=%s/at=%d", len(topo.Regions), miss, i)
				t.Run(name, func(t *testing.T) {
					events := newLeaseEvents()
					c := newTestCluster(t, cluster.Config{
						Topology:     topo,
						MasterRegion: ks,
						MasterLeases: true,
						WAL:          true,
						OnLeaseEvent: events.record,
					})
					term = c.ScaleDuration(cluster.DefaultLeaseTerm)
					survivors := crashAfterLostRenewal(t, c, events, ks, miss, lost, time.Duration(i)*term/30)
					clk := c.Clock()
					crashed := clk.Now()
					var got []simnet.Region
					eventually(t, c, bound*term, "a holder is elected", func() bool {
						got = holders(c, ks, survivors)
						return len(got) > 0
					})
					took := clk.Now().Sub(crashed)
					if len(got) != 1 {
						t.Fatalf("%v hold the lease at once", got)
					}
					clk.Sleep(3 * term)
					if later := holders(c, ks, survivors); len(later) != 1 || later[0] != got[0] {
						t.Errorf("3 terms after %s's election the holders are %v", got[0], later)
					}
					if n := events.count(mdcc.LeaseTakeover); n != 1 {
						t.Errorf("%d LeaseTakeover events, want 1", n)
					}
					if took > worst {
						worst, worstRun = took, fmt.Sprintf("%s (heir %s)", name, got[0])
					}
				})
			}
		}
	}
	t.Logf("slowest election: %v = %.2f terms after the crash, in %s", worst, float64(worst)/float64(term), worstRun)
}

// TestLeaseFailoverUnderLoad is master failover on the virtual clock, seeds
// 1–20: a three-region cluster whose every key's default holder is
// Virginia boots with Virginia holding the lease, then loses Virginia
// (replica and coordinator) with a burst of classic transfers in flight.
// Every one of them, and a transfer submitted right after the crash, reaches
// a final outcome within the commit timeout; exactly one survivor then
// holds the lease and counts one takeover, and the dead master's keys
// commit while it is down. Restarted, Virginia rejoins deposed. The
// verdicts agree and every replica's accounts conserve. Each seed logs a
// fingerprint of its run, which verify.sh requires bit-identical across
// runs. The real-socket half is httpapi's TestNodeLeaseFailover.
func TestLeaseFailoverUnderLoad(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Logf("fingerprint seed=%d %x", seed, sha256.Sum256([]byte(failoverUnderLoad(t, seed))))
		})
	}
}

// failoverUnderLoad runs one seed of TestLeaseFailoverUnderLoad and returns
// its fingerprint: every transfer's outcome in submission order, the heir,
// and each region's final lease view, takeover count and accounts.
func failoverUnderLoad(t *testing.T, seed int64) string {
	const victim, gw = regions.Virginia, regions.California
	ks := victim
	c := newTestCluster(t, cluster.Config{
		Topology:     regions.Three(),
		Seed:         seed,
		MasterRegion: victim,
		MasterLeases: true,
		WAL:          true,
	})
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct-%d", i+1)
		c.SeedInt(keys[i], 100, 0, 10_000_000)
	}
	db, err := planet.Open(planet.Config{Cluster: c, Mode: mdcc.ModeClassic})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := db.Session(gw)
	if err != nil {
		t.Fatal(err)
	}
	var fp strings.Builder
	transfer := func(from, to string, amt int64) *planet.Handle {
		tx := sess.Begin()
		tx.Add(from, -amt)
		tx.Add(to, amt)
		h, err := tx.Commit(planet.CommitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	// outcome waits for h and records its verdict in the fingerprint.
	outcome := func(what string, h *planet.Handle) txn.Outcome {
		o := h.Wait()
		fmt.Fprintf(&fp, "%s:%v/%v in %v\n", what, o.Committed, o.Err != nil, o.Decided.Sub(o.Submitted))
		return o
	}
	// commitWithin resubmits a transfer until it commits, for at most d.
	commitWithin := func(d time.Duration, what string, from, to string) {
		t.Helper()
		deadline := c.Clock().Now().Add(d)
		for !outcome(what, transfer(from, to, 1)).Committed {
			if c.Clock().Now().After(deadline) {
				t.Fatalf("%s: no commit within %v", what, d)
			}
		}
	}
	term, timeout := c.ScaleDuration(cluster.DefaultLeaseTerm), c.CommitTimeout()

	// Boot: the default holder wins, and the bank warms up through it.
	waitHeld(t, c, victim, ks, 10*time.Second)
	if got := holders(c, ks, c.Regions()); len(got) != 1 {
		t.Fatalf("holders at boot: %v, want only %s", got, victim)
	}
	for i := 0; i < 4; i++ {
		if !outcome("warmup", transfer(keys[i], keys[i+2], 3)).Committed {
			t.Fatalf("warm-up transfer %d aborted", i)
		}
	}

	// The burst leaves for the master, which dies before its options
	// arrive; so does the replica's coordinator.
	var burst []*planet.Handle
	for i := 0; i < 4; i++ {
		burst = append(burst, transfer(keys[i], keys[(i+5)%len(keys)], 1))
	}
	if err := c.CrashReplica(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashCoordinator(victim); err != nil {
		t.Fatal(err)
	}
	crashed := c.Clock().Now()
	burst = append(burst, transfer(keys[0], keys[1], 1))
	for i, h := range burst {
		o := outcome("burst", h)
		if took := o.Decided.Sub(o.Submitted); o.Decided.IsZero() || took > timeout {
			t.Errorf("transfer %d in flight at the crash took %v to resolve, want within the %v commit timeout", i, took, timeout)
		}
	}

	// Exactly one survivor holds the lease, by its own account.
	survivors := []simnet.Region{regions.California, regions.Ireland}
	var got []simnet.Region
	eventually(t, c, 4*term, "a survivor takes the lease over", func() bool {
		got = holders(c, ks, survivors)
		return len(got) > 0
	})
	if len(got) != 1 {
		t.Fatalf("%v hold the lease at once", got)
	}
	heir := got[0]
	fmt.Fprintf(&fp, "heir:%s@%v\n", heir, c.Clock().Now().Sub(crashed))
	if n := c.Replica(heir).LeaseTakeoverCount(); n != 1 {
		t.Errorf("heir %s's LeaseTakeoverCount = %d, want 1", heir, n)
	}

	// The dead master's keys commit under the heir, Virginia still down.
	commitWithin(2*term, "takeover", keys[0], keys[1])
	committed := 0
	for i := 0; i < 4; i++ {
		if outcome("outage", transfer(keys[i], keys[i+3], 2)).Committed {
			committed++
		}
	}
	if committed < 3 {
		t.Errorf("%d of 4 transfers committed under the heir, want at least 3", committed)
	}
	if !c.Replica(victim).Crashed() {
		t.Fatal("the dead master came back by itself")
	}

	// Restarted, Virginia replays its held epoch, finds the heir's, and
	// converges on it instead of reclaiming the keyspace.
	if err := c.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	c.RestartCoordinator(victim)
	eventually(t, c, 4*term, "restarted master converges on the heir", func() bool {
		li := c.Replica(victim).Lease(ks)
		return li.Epoch != 0 && simnet.Region(li.Holder) == heir
	})
	if c.Replica(victim).HoldsLease(ks) || len(holders(c, ks, c.Regions())) != 1 {
		t.Errorf("after the restart %v hold the lease, want only %s", holders(c, ks, c.Regions()), heir)
	}
	commitWithin(2*term, "restart", keys[1], keys[0])

	if !c.Quiesce(10 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	verdicts := make(map[txn.ID]bool)
	for _, r := range c.Regions() {
		for id, commit := range c.Replica(r).Decisions() {
			if prev, ok := verdicts[id]; ok && prev != commit {
				t.Errorf("dual decision on %s: %s says commit=%v", id, r, commit)
			}
			verdicts[id] = commit
		}
	}
	regionList := append([]simnet.Region(nil), c.Regions()...)
	sort.Slice(regionList, func(i, j int) bool { return regionList[i] < regionList[j] })
	for _, r := range regionList {
		var sum int64
		for _, k := range keys {
			v, _ := c.Replica(r).ReadLocal(k)
			sum += v.Int
			fmt.Fprintf(&fp, "%s/%s:%d@%d\n", r, k, v.Int, v.Version)
		}
		if sum != int64(100*len(keys)) {
			t.Errorf("%s: accounts sum to %d, want %d", r, sum, 100*len(keys))
		}
		holder, epoch, _ := c.Replica(r).LeaseView(ks)
		fmt.Fprintf(&fp, "%s/lease:%s@%d takeovers:%d\n", r, holder, epoch, c.Replica(r).LeaseTakeoverCount())
	}
	return fp.String()
}
