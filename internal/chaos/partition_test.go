package chaos_test

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"planet/internal/chaos"
	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/mdcc"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/txn"
	"planet/internal/vclock"
)

// TestPartitionScenarioRecovers runs the partition preset — one region
// blacked out, then a link cut, each healed after 10 s — through the chaos
// engine on a leased three-region cluster, seeds 1–20, with classic
// transfers running through us-west throughout. Some commit during the
// scenario; after the last heal a transfer through every region commits
// within two lease terms; the verdicts agree and every replica's accounts
// conserve. Each seed logs a fingerprint of its run, which verify.sh
// requires bit-identical across runs.
func TestPartitionScenarioRecovers(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Logf("fingerprint seed=%d %x", seed, sha256.Sum256([]byte(partitionScenario(t, seed))))
		})
	}
}

// partitionScenario runs one seed of TestPartitionScenarioRecovers and
// returns its fingerprint: the scenario's attempts and commits, each
// region's time to commit after the heal, each region's final lease views
// and accounts.
func partitionScenario(t *testing.T, seed int64) string {
	// The term and commit timeout keep the process harness's proportions
	// to the preset's 10 s faults (1.2 s and 1.5 s against 2 s at its 0.2
	// compression): a blackout outlasts a term, so its region's keyspace
	// fails over.
	const term, timeout = 6 * time.Second, 7500 * time.Millisecond
	c, err := cluster.New(cluster.Config{
		Topology:      regions.Three(),
		TimeScale:     0.01,
		Seed:          seed,
		WAL:           true,
		MasterLeases:  true,
		LeaseTerm:     term,
		CommitTimeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clk := c.Clock()
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct-%d", i+1)
		c.SeedInt(keys[i], 100, 0, 10_000_000)
	}
	db, err := planet.Open(planet.Config{Cluster: c, Mode: mdcc.ModeClassic})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := chaos.New(chaos.Config{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	rs := slices.Clone(c.Regions())
	slices.Sort(rs)
	sc, err := chaos.Preset("partition", rs)
	if err != nil {
		t.Fatal(err)
	}
	// transfer moves one unit between two accounts through region r and
	// waits for the verdict.
	transfer := func(r simnet.Region, from, to string) bool {
		sess, err := db.Session(r)
		if err != nil {
			t.Fatal(err)
		}
		tx := sess.Begin()
		tx.Add(from, -1)
		tx.Add(to, 1)
		h, err := tx.Commit(planet.CommitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return h.Wait().Committed
	}

	// Boot: each region holds its own keyspace (key-hash mastership).
	for _, r := range rs {
		for deadline := clk.Now().Add(10 * time.Second); !holds(c, r, r); clk.Sleep(time.Millisecond) {
			if clk.Now().After(deadline) {
				t.Fatalf("%s never took its own keyspace's lease", r)
			}
		}
	}

	var attempts, commits int
	var stop atomic.Bool
	load := vclock.NewGroup(clk)
	load.Go(func() {
		for i := 0; !stop.Load(); i++ {
			attempts++
			if transfer("us-west", keys[i%len(keys)], keys[(i+3)%len(keys)]) {
				commits++
			}
		}
	})
	if err := eng.Run(sc); err != nil {
		t.Fatal(err)
	}
	eng.Wait()
	stop.Store(true)
	load.Wait()
	var fp strings.Builder
	fmt.Fprintf(&fp, "scenario: %d attempts, %d commits\n", attempts, commits)
	if commits == 0 {
		t.Error("no transfer committed during the scenario")
	}

	healed := clk.Now()
	bound := 2 * c.ScaleDuration(term)
	for _, r := range rs {
		for !transfer(r, keys[0], keys[1]) {
			if clk.Now().Sub(healed) > bound {
				t.Fatalf("no commit through %s within %v of the heal", r, bound)
			}
		}
		fmt.Fprintf(&fp, "%s: committed %v after the heal\n", r, clk.Now().Sub(healed))
	}

	if !c.Quiesce(10 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	verdicts := make(map[txn.ID]bool)
	for _, r := range rs {
		for id, commit := range c.Replica(r).Decisions() {
			if prev, ok := verdicts[id]; ok && prev != commit {
				t.Errorf("dual decision on %s: %s says commit=%v", id, r, commit)
			}
			verdicts[id] = commit
		}
	}
	for _, r := range rs {
		var sum int64
		for _, k := range keys {
			v, _ := c.Replica(r).ReadLocal(k)
			sum += v.Int
			fmt.Fprintf(&fp, "%s/%s:%d@%d\n", r, k, v.Int, v.Version)
		}
		if sum != int64(100*len(keys)) {
			t.Errorf("%s: accounts sum to %d, want %d", r, sum, 100*len(keys))
		}
		_, leases, takeovers := c.Replica(r).LeaseTable()
		for _, li := range leases {
			fmt.Fprintf(&fp, "%s/lease %s:%s@%d\n", r, li.Keyspace, li.Holder, li.Epoch)
		}
		fmt.Fprintf(&fp, "%s/takeovers:%d\n", r, takeovers)
	}
	return fp.String()
}

// holds reports whether region r's replica holds keyspace ks's lease.
func holds(c *cluster.Cluster, r, ks simnet.Region) bool {
	_, leases, _ := c.Replica(r).LeaseTable()
	for _, li := range leases {
		if li.Keyspace == string(ks) {
			return li.Held
		}
	}
	return false
}
