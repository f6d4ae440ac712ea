package cluster_test

// Transport equivalence: the same deterministic workload, run once over the
// simulated WAN and once over real TCP between in-process nodes, must
// produce identical per-transaction outcomes and identical final state.
// The wire and the scheduler may differ; the protocol's decisions may not.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"planet/internal/cluster"
	"planet/internal/clustertest"
	planet "planet/internal/core"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/txn"
)

// eqRegions matches the three-datacenter topology's region names.
var eqRegions = []simnet.Region{"us-west", "us-east", "eu-west"}

var eqKeys = []string{"eq-a", "eq-b", "eq-c", "eq-d", "eq-e", "eq-f"}

// eqStep is one workload transaction: one or two bounded adds.
type eqStep struct {
	k1, k2 string
	d1, d2 int64
	two    bool
}

// eqWorkload derives a deterministic transaction sequence from seed. The
// deltas straddle the [0,100] bounds of the seeded accounts, so the
// sequence mixes commits with integrity aborts.
func eqWorkload(seed int64, n int) []eqStep {
	rng := rand.New(rand.NewSource(seed))
	steps := make([]eqStep, n)
	for i := range steps {
		s := eqStep{
			k1:  eqKeys[rng.Intn(len(eqKeys))],
			d1:  int64(rng.Intn(121) - 60),
			two: rng.Intn(2) == 0,
		}
		if s.two {
			s.k2 = eqKeys[rng.Intn(len(eqKeys))]
			s.d2 = int64(rng.Intn(121) - 60)
			if s.k2 == s.k1 {
				s.two = false
			}
		}
		steps[i] = s
	}
	return steps
}

// runEqWorkload executes the steps sequentially through a session in
// region us-west, invoking barrier after each transaction so every replica
// has applied the decision before the next submission — the
// synchronization that makes the outcome sequence timing-independent.
func runEqWorkload(t *testing.T, db *planet.DB, steps []eqStep,
	barrier func(id txn.ID) error) ([]bool, map[string]int64) {
	t.Helper()
	sess, err := db.Session("us-west")
	if err != nil {
		t.Fatal(err)
	}
	outcomes := make([]bool, 0, len(steps))
	for i, s := range steps {
		tx := sess.Begin()
		tx.Add(s.k1, s.d1)
		if s.two {
			tx.Add(s.k2, s.d2)
		}
		h, err := tx.Commit(planet.CommitOptions{})
		if err != nil {
			t.Fatalf("step %d commit: %v", i, err)
		}
		oc := h.Wait()
		outcomes = append(outcomes, oc.Committed)
		if err := barrier(h.ID()); err != nil {
			t.Fatalf("step %d barrier: %v", i, err)
		}
	}
	finals := make(map[string]int64, len(eqKeys))
	for _, k := range eqKeys {
		v, _, err := sess.ReadInt(k)
		if err != nil {
			t.Fatalf("final read %q: %v", k, err)
		}
		finals[k] = v
	}
	return outcomes, finals
}

// simnetOutcomes runs the workload over the simulated WAN.
func simnetOutcomes(t *testing.T, seed int64, steps []eqStep) ([]bool, map[string]int64) {
	t.Helper()
	topo, err := regions.Build(eqRegions, regions.DefaultSigma)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{
		Topology:  topo,
		TimeScale: 0.01,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		c.Quiesce(2 * time.Second)
	})
	for _, k := range eqKeys {
		c.SeedInt(k, 50, 0, 100)
	}
	db, err := planet.Open(planet.Config{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	// The simulated network has a global view of in-flight messages, so
	// quiescing is the per-step barrier.
	barrier := func(txn.ID) error {
		if !c.Quiesce(5 * time.Second) {
			return fmt.Errorf("simnet did not quiesce")
		}
		return nil
	}
	return runEqWorkload(t, db, steps, barrier)
}

// realnetOutcomes runs the workload over real TCP: three in-process nodes
// on loopback, a planet DB on the us-west gateway node.
func realnetOutcomes(t *testing.T, steps []eqStep) ([]bool, map[string]int64) {
	t.Helper()
	nodes, _, err := clustertest.StartNodes(t, eqRegions, func(simnet.Region) cluster.NodeConfig {
		return cluster.NodeConfig{CommitTimeout: 20 * time.Second}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, nc := range nodes {
		for _, k := range eqKeys {
			nc.SeedInt(k, 50, 0, 100)
		}
	}
	db, err := planet.Open(planet.Config{Cluster: nodes["us-west"]})
	if err != nil {
		t.Fatal(err)
	}
	// The wire has no global view; the barrier polls every node's replica
	// until it has recorded the decision.
	barrier := func(id txn.ID) error {
		for _, r := range eqRegions {
			if !waitDecided(nodes[r], r, id, 10*time.Second) {
				return fmt.Errorf("replica %s never saw decision for %s", r, id)
			}
		}
		return nil
	}
	return runEqWorkload(t, db, steps, barrier)
}

// TestTransportEquivalence is the acceptance gate: for seeds 1, 7, and 42,
// the simnet run and the realnet run of the derived workload agree on
// every transaction's verdict and on the final value of every key.
func TestTransportEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-transport equivalence is not short")
	}
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			steps := eqWorkload(seed, 24)
			simOut, simFinal := simnetOutcomes(t, seed, steps)
			realOut, realFinal := realnetOutcomes(t, steps)
			for i := range steps {
				if simOut[i] != realOut[i] {
					t.Errorf("step %d (%+v): simnet committed=%v, realnet committed=%v",
						i, steps[i], simOut[i], realOut[i])
				}
			}
			for _, k := range eqKeys {
				if simFinal[k] != realFinal[k] {
					t.Errorf("final %q: simnet=%d realnet=%d", k, simFinal[k], realFinal[k])
				}
			}
			commits := 0
			for _, c := range simOut {
				if c {
					commits++
				}
			}
			if commits == 0 || commits == len(steps) {
				t.Errorf("degenerate workload: %d/%d commits exercises only one verdict", commits, len(steps))
			}
		})
	}
}
