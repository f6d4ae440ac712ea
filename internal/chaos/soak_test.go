package chaos_test

// The invariant soak harness: a generated fault schedule (always containing
// a partition, a replica crash/restart with WAL recovery, and a latency
// spike) runs against a live closed-loop workload, and afterwards the
// harness audits the safety invariants that must survive any fault pattern:
//
//  1. Conservation: every issued transaction is accounted for exactly once
//     (issued == submitted + rejected, submitted == committed + aborted).
//  2. No dual decision: no transaction ID is both committed and aborted —
//     within one replica's WAL or across replicas' WALs.
//  3. Replay equality: for the same seed the generated schedule is
//     identical, and every replica's live state equals the state rebuilt
//     from the durable seed image + WAL replay (Restore).
//
// The harness runs a reduced size under -short (the verify.sh gate) but
// never skips.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"planet/internal/chaos"
	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/mdcc"
	"planet/internal/simnet"
	"planet/internal/txn"
	"planet/internal/vclock"
	"planet/internal/workload"
)

func TestChaosSoakInvariants(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosSoak(t, seed, soakOpts{})
		})
	}
}

// TestChaosSoakLeaseFailover repeats the soak with epoch-fenced master
// leases enabled and a short term, so the scheduled replica crash kills a
// live lease holder mid-run: at least one survivor must take the dead
// holder's keyspace over, and every safety invariant — conservation, no
// dual decision within or across WALs, replay equality — must hold under
// lease churn exactly as it does under static mastership.
func TestChaosSoakLeaseFailover(t *testing.T) {
	for _, seed := range []int64{7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosSoak(t, seed, soakOpts{leases: true})
		})
	}
}

// TestChaosSoakDeterminism runs one soak twice with one seed: every
// replica's WAL must come out byte-identical, since the workload, the fault
// schedule and the protocol all run on the cluster's virtual clock. The
// schedule gains a coordinator crash with transactions in flight, and the
// crashed coordinator must report its decisions, the crash's aborts
// included, in the same order both times. verify.sh runs it repeatedly.
func TestChaosSoakDeterminism(t *testing.T) {
	a, aDecided := runChaosSoak(t, 7, soakOpts{coordCrash: true})
	b, bDecided := runChaosSoak(t, 7, soakOpts{coordCrash: true})
	for r, wal := range a {
		if !bytes.Equal(wal, b[r]) {
			t.Errorf("%s: same seed, different WAL bytes (%d vs %d bytes)", r, len(wal), len(b[r]))
		}
	}
	if !slices.Equal(aDecided, bDecided) {
		t.Errorf("same seed, the crashed coordinator's decisions differ:\n%v\n%v", aDecided, bDecided)
	}
}

// soakOpts selects protocol variants for one soak run.
type soakOpts struct {
	leases bool // epoch-fenced master leases instead of static masters
	// coordCrash adds a crash of the first region's coordinator a fifth
	// into the schedule, and requires it to fail at least two transactions
	// in flight there.
	coordCrash bool
}

// crashWatch is a coordinator observer that records its decisions, in
// the order it reports them: a crash aborts every transaction in flight
// at its own instant.
type crashWatch struct {
	clk     vclock.Clock
	mu      sync.Mutex
	decided []decision
}

// decision is one Decided report: when, the verdict, and the
// transaction's age.
type decision struct {
	at      int64
	commit  bool
	elapsed time.Duration
}

func (w *crashWatch) Vote(simnet.Region, bool, time.Duration) {}
func (w *crashWatch) Fallback()                               {}
func (w *crashWatch) Timeout()                                {}
func (w *crashWatch) Decided(commit bool, elapsed time.Duration) {
	w.mu.Lock()
	w.decided = append(w.decided, decision{w.clk.Now().UnixNano(), commit, elapsed})
	w.mu.Unlock()
}

// abortsAt counts the aborts reported at instant at.
func (w *crashWatch) abortsAt(at time.Time) (n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, d := range w.decided {
		if !d.commit && d.at == at.UnixNano() {
			n++
		}
	}
	return n
}

// runChaosSoak runs one soak, audits the invariants, and returns each
// replica's WAL as the JSON lines a file-backed log would hold and, with
// opts.coordCrash, the crashed coordinator's decisions.
func runChaosSoak(t *testing.T, seed int64, opts soakOpts) (map[simnet.Region][]byte, []decision) {
	// The schedule spans about as long as the load takes to run fault-free
	// (unscaled; 50ms virtual at TimeScale 0.01), so every fault window has
	// transactions in flight.
	clients, perClient := 20, 20
	span := 5 * time.Second
	if testing.Short() {
		clients, perClient = 10, 10
		span = 2500 * time.Millisecond
	}

	c, err := cluster.New(cluster.Config{
		TimeScale: 0.01,
		Seed:      seed,
		WAL:       true,
		// Generous relative to the injected latency spikes, small enough
		// that a blackout-stalled transaction resolves within the test.
		CommitTimeout: 30 * time.Second,
		MasterLeases:  opts.leases,
		// Near the generated crash durations (0.25s--1.25s unscaled), so a
		// crashed holder's lease can lapse and fail over inside the fault
		// window; much shorter, and renewal traffic never lets the network
		// quiesce.
		LeaseTerm: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		c.Quiesce(5 * time.Second)
	}()
	db, err := planet.Open(planet.Config{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := chaos.New(chaos.Config{Cluster: c, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	// Invariant 3a — schedule replay equality: the same seed generates the
	// identical fault schedule.
	gen := chaos.GenConfig{Seed: seed, Span: span, Extra: 2}
	sc, err := chaos.Generate(c.Regions(), gen)
	if err != nil {
		t.Fatal(err)
	}
	if sc2, _ := chaos.Generate(c.Regions(), gen); !reflect.DeepEqual(sc, sc2) {
		t.Fatal("Generate is not deterministic for a fixed seed")
	}

	// The acceptance trio must be on the schedule: a partition, a replica
	// crash (with recovery), and a latency spike.
	kinds := make(map[chaos.FaultKind]int)
	crashed := make(map[simnet.Region]bool)
	for _, f := range sc.Faults {
		kinds[f.Kind]++
		if f.Kind == chaos.FaultReplicaCrash {
			crashed[f.Region] = true
		}
	}
	if kinds[chaos.FaultRegionDown]+kinds[chaos.FaultLinkCut] == 0 {
		t.Fatal("schedule has no partition fault")
	}
	if kinds[chaos.FaultReplicaCrash] == 0 {
		t.Fatal("schedule has no replica crash")
	}
	if kinds[chaos.FaultLatencySpike] == 0 {
		t.Fatal("schedule has no latency spike")
	}
	// The crash victim's coordinator reports its decisions to watch;
	// without a metrics registry the DB installs no observer of its own.
	victim := c.Regions()[0]
	watch := &crashWatch{clk: c.Clock()}
	if opts.coordCrash {
		sc.Faults = append(sc.Faults, chaos.Fault{At: span / 5, Duration: span / 10,
			Kind: chaos.FaultCoordCrash, Region: victim})
		c.Coordinator(victim).SetObserver(watch)
	}

	// Fire the schedule and drive load through it.
	if err := eng.Run(sc); err != nil {
		t.Fatal(err)
	}
	issued := clients * perClient
	rep, err := workload.Closed{
		Options: workload.Options{
			DB: db,
			// Commutative decrements: no read dependencies, so a crashed
			// local replica cannot fail transaction *construction* — all
			// failures flow through the commit pipeline under test.
			Template:    workload.Buy{Products: workload.NewZipf("p-", 32, 1.1), Stock: 1 << 30},
			SpeculateAt: 0.9,
			Seed:        seed,
		},
		Clients: clients, PerClient: perClient,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	eng.Wait() // scenario end heals every outstanding fault
	if !c.Quiesce(20 * time.Second) {
		t.Fatal("network did not quiesce after the scenario")
	}
	t.Logf("workload: %s", rep)
	t.Logf("injections: %d", len(eng.Injected()))
	if opts.coordCrash {
		inFlight := 0
		for _, in := range eng.Injected() {
			if in.Kind == chaos.FaultCoordCrash && !in.Heal && in.Detail == fmt.Sprintf("coordinator %s crashed", victim) {
				inFlight += watch.abortsAt(in.At)
			}
		}
		t.Logf("transactions in flight at %s's coordinator crash: %d", victim, inFlight)
		if inFlight < 2 {
			t.Errorf("the coordinator crash at %s failed %d transactions in flight, want at least 2", victim, inFlight)
		}
	}

	// Invariant 1 — conservation.
	st := db.Stats()
	t.Logf("stats: %+v", st)
	if st.Submitted+st.Rejected != uint64(issued) {
		t.Errorf("conservation: submitted %d + rejected %d != issued %d",
			st.Submitted, st.Rejected, issued)
	}
	if st.Committed+st.Aborted != st.Submitted {
		t.Errorf("conservation: committed %d + aborted %d != submitted %d",
			st.Committed, st.Aborted, st.Submitted)
	}
	if st.Committed == 0 {
		t.Error("no transaction committed through the chaos schedule")
	}

	// Invariant 2 — no dual decision. A replica that was down missed some
	// decisions, so WAL *lengths* may differ; what must never happen is
	// the same transaction ID logged twice in one WAL, or logged with
	// opposite verdicts anywhere in the cluster.
	decisions := make(map[txn.ID]bool)
	for _, r := range c.Regions() {
		seen := make(map[txn.ID]bool)
		err := c.WALOf(r).Replay(func(e mdcc.Entry) error {
			if e.Lease != nil {
				return nil // lease transition, not a decision
			}
			if seen[e.Txn] {
				return fmt.Errorf("txn %s logged twice in %s's WAL", e.Txn, r)
			}
			seen[e.Txn] = true
			if prev, ok := decisions[e.Txn]; ok && prev != e.Commit {
				return fmt.Errorf("dual decision for txn %s (commit=%v at %s disagrees)", e.Txn, e.Commit, r)
			}
			decisions[e.Txn] = e.Commit
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}

	wals := make(map[simnet.Region][]byte, len(c.Regions()))
	for _, r := range c.Regions() {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if err := c.WALOf(r).Replay(func(e mdcc.Entry) error { return enc.Encode(e) }); err != nil {
			t.Fatal(err)
		}
		wals[r] = buf.Bytes()
	}

	// Invariant 3b — state replay equality: each replica's live state must
	// equal the state rebuilt from the seed image + WAL (what a crash at
	// this instant would recover to).
	recoveries := uint64(0)
	for _, r := range c.Regions() {
		replica := c.Replica(r)
		recoveries += replica.RecoveryRuns
		before := replica.Snapshot()
		if err := replica.Restore(); err != nil {
			t.Fatalf("%s: Restore: %v", r, err)
		}
		after := replica.Snapshot()
		if !reflect.DeepEqual(before, after) {
			t.Errorf("%s: live state != seed image + WAL replay\nlive:     %+v\nreplayed: %+v", r, before, after)
		}
	}

	// The scheduled crash really exercised WAL recovery mid-run.
	if recoveries == 0 {
		t.Error("no replica performed a WAL recovery during the scenario")
	}
	for r := range crashed {
		if c.Replica(r).Crashed() {
			t.Errorf("%s: replica still crashed after scenario end", r)
		}
	}

	// Under leases, the scheduled crash must have cost the victim at least
	// one keyspace: some survivor claimed a lease away from a dead holder.
	if opts.leases {
		var takeovers uint64
		for _, r := range c.Regions() {
			_, _, n := c.Replica(r).LeaseTable()
			takeovers += n
		}
		t.Logf("lease takeovers: %d", takeovers)
		if takeovers == 0 {
			t.Error("no keyspace lease was taken over despite a replica crash longer than the term")
		}
	}
	watch.mu.Lock()
	defer watch.mu.Unlock()
	return wals, watch.decided
}
