package workload

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/keyspace"
	"planet/internal/regions"
)

// virtualDB builds a DB on the virtual clock for open-loop tests: a
// million arrivals of emulator time run in seconds of wall time, and the
// whole run is a pure function of the seed.
func virtualDB(t *testing.T, seed int64, pcfg planet.Config) (*cluster.Cluster, *planet.DB) {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Topology:      regions.Three(),
		Seed:          seed,
		CommitTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		c.Quiesce(2 * time.Second)
	})
	pcfg.Cluster = c
	db, err := planet.Open(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, db
}

// goroutineProbe is a Template that records, at every Build, the process's
// goroutine count and the database's in-flight count. Open calls Build from
// the arrival's body, right before the Commit that posts OnAccept, so the
// samples see every earlier arrival still in flight.
type goroutineProbe struct {
	Template
	db            *planet.DB
	maxGoroutines int
	maxInFlight   int64
}

func (p *goroutineProbe) Build(s *planet.Session, rng *rand.Rand) (*planet.Txn, error) {
	// Bodies of one clock run one at a time: no lock.
	p.maxGoroutines = max(p.maxGoroutines, runtime.NumGoroutine())
	p.maxInFlight = max(p.maxInFlight, p.db.InFlight())
	return p.Template.Build(s, rng)
}

// TestOpenLoopHoldsNoGoroutinePerArrival: an open-loop round on a
// virtual cluster keeps thousands of transactions in flight
// without a goroutine for any of them — no dispatcher per handle, no parked
// waiter per arrival — so the goroutine count stays within a small constant
// of what it was before the round.
func TestOpenLoopHoldsNoGoroutinePerArrival(t *testing.T) {
	_, db := virtualDB(t, 11, planet.Config{})
	probe := &goroutineProbe{Template: Buy{Products: Uniform{Prefix: "p-", N: 10_000}}, db: db}
	before := runtime.NumGoroutine()
	rep, err := Open{
		Options: Options{DB: db, Template: probe, Seed: 3},
		Rate:    5e6, // all 3000 arrive within a millisecond, before the first commit lands
		Count:   3000,
		Batch:   200 * time.Microsecond,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Committed.Load(); got != 3000 {
		t.Fatalf("committed %d of 3000", got)
	}
	if probe.maxInFlight < 2000 {
		t.Fatalf("at most %d transactions in flight at once, want >= 2000", probe.maxInFlight)
	}
	if extra := probe.maxGoroutines - before; extra > 8 {
		t.Fatalf("%d goroutines with %d transactions in flight, %d before the round: %d extra, want a small constant",
			probe.maxGoroutines, probe.maxInFlight, before, extra)
	}
}

// TestOpenLoopMillion drives one million-plus open-loop virtual users
// through a surge-shaped diurnal schedule with admission control on,
// checking the conservation invariant at every sample point and
// cross-checking the ledger against the report at the end. Admission
// sheds most of the load (that is the point of open-loop: arrivals do not
// wait for capacity), so the run stays inside the go test budget.
func TestOpenLoopMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("million-arrival run skipped in -short mode")
	}
	_, db := virtualDB(t, 42, planet.Config{
		Admission: planet.AdmissionPolicy{MaxInFlight: 48},
	})
	ledger := &Ledger{}
	rep, err := Open{
		Options: Options{
			DB:       db,
			Template: Buy{Products: NewZipf("hot-", 1000, 1.2)},
			Seed:     7,
		},
		Phases: []RatePhase{
			{Rate: 2e6, Dur: 200 * time.Millisecond}, // morning ramp
			{Rate: 5e6, Dur: 100 * time.Millisecond}, // surge peak
			{Rate: 0, Dur: 20 * time.Millisecond},    // trough
			{Rate: 2e6, Dur: 200 * time.Millisecond}, // evening tail
		},
		Batch:       200 * time.Microsecond,
		Ledger:      ledger,
		SampleEvery: 4096,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}

	final := ledger.Final()
	if final.Injected < 1_000_000 {
		t.Fatalf("injected %d arrivals, want >= 1M", final.Injected)
	}
	if final.InFlight != 0 {
		t.Fatalf("in-flight %d after drain, want 0", final.InFlight)
	}
	samples := ledger.Samples()
	if len(samples) < 200 {
		t.Fatalf("only %d conservation samples for %d arrivals", len(samples), final.Injected)
	}
	for _, s := range samples {
		if err := s.Check(); err != nil {
			t.Fatal(err)
		}
	}
	// The ledger and the report count through independent code paths; they
	// must agree exactly.
	if rep.Committed.Load() != final.Committed || rep.Aborted.Load() != final.Aborted ||
		rep.Rejected.Load() != final.Rejected {
		t.Fatalf("ledger %v disagrees with report committed=%d aborted=%d rejected=%d",
			final, rep.Committed.Load(), rep.Aborted.Load(), rep.Rejected.Load())
	}
	if rep.Total() != final.Injected {
		t.Fatalf("report total %d != injected %d", rep.Total(), final.Injected)
	}
	if final.Committed == 0 {
		t.Fatal("surge rejected everything: admission gate never admitted a commit")
	}
	t.Logf("million-user run: %v (%.1f%% shed)", final,
		100*float64(final.Rejected)/float64(final.Injected))
}

// TestOpenLoopConservationChaos crashes a replica and cuts a WAN link in
// the middle of an open-loop surge, then heals both, and requires the
// conservation invariant to hold at every sample through the fault window
// — timeouts, aborts, and rejections all have to land in exactly one
// ledger bucket even while the cluster is degraded.
func TestOpenLoopConservationChaos(t *testing.T) {
	c, db := virtualDB(t, 43, planet.Config{
		Admission: planet.AdmissionPolicy{MaxInFlight: 32},
	})
	clk := c.Clock()

	// Fault window: one replica down and one WAN link cut mid-surge, both
	// healed before the tail phase ends.
	clk.AfterFunc(60*time.Millisecond, func() {
		if err := c.CrashReplica(regions.Virginia); err != nil {
			t.Error(err)
		}
		c.Net.SetLinkCut(regions.California, regions.Ireland, true)
	})
	clk.AfterFunc(160*time.Millisecond, func() {
		c.Net.SetLinkCut(regions.California, regions.Ireland, false)
		if err := c.RestartReplica(regions.Virginia); err != nil {
			t.Error(err)
		}
	})

	ledger := &Ledger{}
	_, err := Open{
		Options: Options{
			DB:       db,
			Template: Transfer{Accounts: NewZipf("acct-", 200, 1.3), Balance: 100},
			Seed:     11,
		},
		Phases: []RatePhase{
			{Rate: 50_000, Dur: 120 * time.Millisecond},
			{Rate: 200_000, Dur: 80 * time.Millisecond}, // surge inside the fault window
			{Rate: 50_000, Dur: 120 * time.Millisecond},
		},
		Batch:       500 * time.Microsecond,
		Ledger:      ledger,
		SampleEvery: 512,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	final := ledger.Final()
	if final.InFlight != 0 {
		t.Fatalf("in-flight %d after drain: %v", final.InFlight, final)
	}
	if final.Injected == 0 || final.Committed == 0 {
		t.Fatalf("degenerate chaos run: %v", final)
	}
	for _, s := range ledger.Samples() {
		if err := s.Check(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("chaos run: %v over %d samples", final, len(ledger.Samples()))
}

// TestOpenLoopDeterministic runs the same phased, batched schedule twice
// on identically-seeded clusters and requires bit-identical ledgers: the
// arrival sequence, admission decisions, and outcomes are pure functions
// of the seed even with pooled child RNGs.
func TestOpenLoopDeterministic(t *testing.T) {
	run := func() ([]LedgerSample, LedgerSample) {
		_, db := virtualDB(t, 44, planet.Config{
			Admission: planet.AdmissionPolicy{MaxInFlight: 16},
		})
		ledger := &Ledger{}
		_, err := Open{
			Options: Options{
				DB:       db,
				Template: Buy{Products: NewZipf("dp-", 100, 1.1)},
				Seed:     13,
			},
			Phases: []RatePhase{
				{Rate: 100_000, Dur: 50 * time.Millisecond},
				{Rate: 400_000, Dur: 20 * time.Millisecond},
			},
			Batch:       250 * time.Microsecond,
			Ledger:      ledger,
			SampleEvery: 256,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return ledger.Samples(), ledger.Final()
	}
	s1, f1 := run()
	s2, f2 := run()
	if f1 != f2 {
		t.Fatalf("final ledgers diverged:\n  %v\n  %v", f1, f2)
	}
	if len(s1) != len(s2) {
		t.Fatalf("sample counts diverged: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("sample %d diverged:\n  %v\n  %v", i, s1[i], s2[i])
		}
	}
}

// TestZipfFastSkew: the alias table draws P(k) ∝ (k+1)^-s, so the head
// key takes its exact share, more than ten times the mean.
func TestZipfFastSkew(t *testing.T) {
	const n, s, draws = 1000, 1.3, 20000
	g := NewZipf("z-", n, s)
	rng := rand.New(rand.NewSource(2))
	counts := make(map[string]int)
	for i := 0; i < draws; i++ {
		counts[g.Next(rng)]++
	}
	var norm float64
	for k := 1; k <= n; k++ {
		norm += math.Pow(float64(k), -s)
	}
	head, want := counts[keyspace.Key("z-", 0)], draws/norm
	if head < draws/n*10 || math.Abs(float64(head)-want) > 0.05*want {
		t.Errorf("zipf head key drawn %d times, want %.0f (±5%%)", head, want)
	}
	if len(g.Keys()) != n {
		t.Errorf("Keys()=%d", len(g.Keys()))
	}
}

// TestPooledRNGDeterministic: the draw sequence is a pure function of the
// seed regardless of pool reuse order.
func TestPooledRNGDeterministic(t *testing.T) {
	draw := func(seed int64) [4]int64 {
		r := seededRNG(&rngPool, seed)
		defer rngPool.Put(r)
		var out [4]int64
		for i := range out {
			out[i] = r.Int63()
		}
		return out
	}
	a := draw(99)
	b := draw(7) // interleave another seed to perturb pool state
	if got := draw(99); got != a {
		t.Fatalf("seed 99 drew %v then %v", a, got)
	}
	if got := draw(7); got != b {
		t.Fatalf("seed 7 drew %v then %v", b, got)
	}
}

// TestLedgerAbandonConserves: driver-side failures land in the rejected
// bucket and keep the invariant intact.
func TestLedgerAbandonConserves(t *testing.T) {
	l := &Ledger{}
	l.inject()
	l.inject()
	l.abandon()
	if err := l.Sample(time.Second); err != nil {
		t.Fatal(err)
	}
	f := l.Final()
	if f.Rejected != 1 || f.InFlight != 1 {
		t.Fatalf("unexpected ledger %v", f)
	}
}
