package workload

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/keyspace"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/vclock"
)

func TestUniformKeyGen(t *testing.T) {
	g := Uniform{Prefix: "u-", N: 10}
	rng := rand.New(rand.NewSource(1))
	seen := make(map[string]int)
	for i := 0; i < 10000; i++ {
		seen[g.Next(rng)]++
	}
	if len(seen) != 10 {
		t.Fatalf("drew %d distinct keys, want 10", len(seen))
	}
	for k, n := range seen {
		if !strings.HasPrefix(k, "u-") {
			t.Errorf("key %q missing prefix", k)
		}
		if n < 800 || n > 1200 {
			t.Errorf("key %q drawn %d times, want ≈1000", k, n)
		}
	}
	if len(g.Keys()) != 10 {
		t.Errorf("Keys()=%d", len(g.Keys()))
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewZipf("z-", 1000, 1.3)
	rng := rand.New(rand.NewSource(2))
	counts := make(map[string]int)
	for i := 0; i < 20000; i++ {
		counts[g.Next(rng)]++
	}
	// The head key must dominate: more than 10x the mean.
	head := counts[keyspace.Key("z-", 0)]
	if head < 20000/1000*10 {
		t.Errorf("zipf head key drawn %d times, not skewed", head)
	}
}

func TestZipfDefaultsInvalidS(t *testing.T) {
	g := NewZipf("z-", 10, 0.5)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		if k := g.Next(rng); !strings.HasPrefix(k, "z-") {
			t.Fatalf("bad key %q", k)
		}
	}
}

func TestHotspotSplit(t *testing.T) {
	g := Hotspot{Prefix: "h-", HotKeys: 2, ColdKeys: 1000, HotProb: 0.7}
	rng := rand.New(rand.NewSource(4))
	hot := 0
	const total = 20000
	for i := 0; i < total; i++ {
		if strings.HasPrefix(g.Next(rng), "h-hot-") {
			hot++
		}
	}
	frac := float64(hot) / total
	if frac < 0.67 || frac > 0.73 {
		t.Errorf("hot fraction %.3f, want ≈0.70", frac)
	}
	if len(g.Keys()) != 1002 {
		t.Errorf("Keys()=%d, want 1002", len(g.Keys()))
	}
}

func TestFixedKeyGen(t *testing.T) {
	g := Fixed{List: []string{"a", "b"}}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		if k := g.Next(rng); k != "a" && k != "b" {
			t.Fatalf("unexpected key %q", k)
		}
	}
}

// Property: every generator only emits keys from its declared key space.
func TestKeyGenClosedOverKeys(t *testing.T) {
	gens := []KeyGen{
		Uniform{Prefix: "p-", N: 17},
		NewZipf("p-", 17, 1.2),
		Hotspot{Prefix: "p-", HotKeys: 3, ColdKeys: 14, HotProb: 0.5},
		Fixed{List: []string{"x", "y", "z"}},
	}
	for _, g := range gens {
		space := make(map[string]bool)
		for _, k := range g.Keys() {
			space[k] = true
		}
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				if !space[g.Next(rng)] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("%T: %v", g, err)
		}
	}
}

// Property: a ranged generator's ranges are its key space. They enumerate
// exactly Keys(), every draw falls inside one of them, and the parser behind
// Covers accepts exactly what the formatter writes, past a million keys too.
func TestKeyRangesAreTheKeySpace(t *testing.T) {
	gens := []KeyGen{
		Uniform{Prefix: "u-", N: 37},
		NewZipf("z-", 200, 1.1),
		Hotspot{Prefix: "h-", HotKeys: 3, ColdKeys: 500, HotProb: 0.4},
	}
	for _, g := range gens {
		ranges := g.Ranges()
		covered := func(key string) bool {
			for _, r := range ranges {
				if r.Covers(key) {
					return true
				}
			}
			return false
		}
		enumerated := make(map[string]bool)
		for _, r := range ranges {
			for i := range r.N {
				enumerated[keyspace.Key(r.Prefix, i)] = true
			}
		}
		keys := make(map[string]bool)
		for _, k := range g.Keys() {
			keys[k] = true
			if !covered(k) {
				t.Errorf("%T: key %q is in no range", g, k)
			}
		}
		if !reflect.DeepEqual(keys, enumerated) {
			t.Errorf("%T: ranges enumerate %d keys, Keys() lists %d", g, len(enumerated), len(keys))
		}
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 10_000; i++ {
			if k := g.Next(rng); !covered(k) {
				t.Fatalf("%T: draw %q is in no range", g, k)
			}
		}
	}
	if got := (Fixed{List: []string{"a"}}).Ranges(); got != nil {
		t.Errorf("Fixed reports ranges %v", got)
	}
	big := keyspace.Range{Prefix: "p", N: 1_000_002}
	if !big.Covers(keyspace.Key("p", 1_000_001)) {
		t.Errorf("range of %d keys rejects its last key %q", big.N, keyspace.Key("p", 1_000_001))
	}
	if big.Covers(keyspace.Key("p", 1_000_002)) {
		t.Errorf("range of %d keys covers %q", big.N, keyspace.Key("p", 1_000_002))
	}
}

// testDB builds a small DB for driver tests.
func testDB(t *testing.T, pcfg planet.Config) *planet.DB {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Topology: regions.Three(), TimeScale: 0.01, Seed: 6,
		// Generous: the production default is a 50ms real-time budget at
		// this scale, which flakes on loaded machines.
		CommitTimeout: 60 * time.Second,
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
	return db
}

func TestClosedDriver(t *testing.T) {
	db := testDB(t, planet.Config{})
	rep, err := Closed{
		Options: Options{
			DB:       db,
			Template: Transfer{Accounts: Uniform{Prefix: "acct-", N: 20}, Balance: 100},
			Seed:     7,
		},
		Clients: 6, PerClient: 5,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != 30 {
		t.Errorf("total=%d, want 30", rep.Total())
	}
	if rep.Committed.Load() == 0 {
		t.Error("nothing committed")
	}
	if rep.Final.Count() != rep.Decided() {
		t.Errorf("final latency samples %d != decided %d", rep.Final.Count(), rep.Decided())
	}
	if rep.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
}

// stampedTemplate records the clock time of every Build, that is, of every
// transaction a client starts.
type stampedTemplate struct {
	Template
	clk vclock.Clock
	mu  sync.Mutex
	at  []time.Time
}

func (s *stampedTemplate) Build(sess *planet.Session, rng *rand.Rand) (*planet.Txn, error) {
	s.mu.Lock()
	s.at = append(s.at, s.clk.Now())
	s.mu.Unlock()
	return s.Template.Build(sess, rng)
}

// TestClosedWaitsOutCrashedCoordinator crashes the coordinator of four
// closed-loop clients mid-run and restarts it one and a half commit
// timeouts later. A client whose transaction the crash failed waits a
// commit timeout before its next, so the refusals spread over the outage
// instead of spending every client's budget at the crash instant, and the
// clients commit again once the coordinator is back.
func TestClosedWaitsOutCrashedCoordinator(t *testing.T) {
	const clients, perClient = 4, 20
	db := testDB(t, planet.Config{})
	c := db.Cluster()
	clk := c.Clock()
	region := c.Regions()[0]
	tmpl := &stampedTemplate{Template: Buy{Products: Uniform{Prefix: "cr-", N: 1000}}, clk: clk}
	var crashAt atomic.Int64
	clk.Go(func() {
		clk.Sleep(10 * time.Millisecond)
		crashAt.Store(clk.Now().UnixNano())
		if err := c.CrashCoordinator(region); err != nil {
			t.Error(err)
		}
		clk.Sleep(c.CommitTimeout() * 3 / 2)
		if err := c.RestartCoordinator(region); err != nil {
			t.Error(err)
		}
	})
	rep, err := Closed{
		Options: Options{DB: db, Template: tmpl, Regions: []simnet.Region{region}, Seed: 11},
		Clients: clients, PerClient: perClient,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if crashAt.Load() == 0 {
		t.Fatal("the run ended before the crash")
	}
	atCrash, afterRestart := 0, 0
	restart := time.Unix(0, crashAt.Load()).Add(c.CommitTimeout() * 3 / 2)
	for _, at := range tmpl.at {
		if at.UnixNano() == crashAt.Load() {
			atCrash++
		}
		if !at.Before(restart) {
			afterRestart++
		}
	}
	t.Logf("%s; %d starts at the crash instant, %d after the restart", rep, atCrash, afterRestart)
	if atCrash > clients {
		t.Errorf("%d transactions started at the crash instant, want at most one per client", atCrash)
	}
	// Per client: the transaction in flight at the crash, and one refusal a
	// commit timeout later, while the coordinator is still down.
	if n := rep.Aborted.Load(); n > 2*clients {
		t.Errorf("%d transactions aborted across the outage, want at most %d", n, 2*clients)
	}
	if afterRestart == 0 || rep.Committed.Load() == 0 {
		t.Errorf("no transaction started after the restart (%d committed)", rep.Committed.Load())
	}
}

func TestOpenDriver(t *testing.T) {
	db := testDB(t, planet.Config{})
	rep, err := Open{
		Options: Options{
			DB:       db,
			Template: Buy{Products: Uniform{Prefix: "prod-", N: 50}},
			Seed:     8,
		},
		Rate: 2000, Count: 40,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != 40 {
		t.Errorf("total=%d, want 40", rep.Total())
	}
	if rep.GoodputPerSec() <= 0 {
		t.Error("no goodput measured")
	}
}

func TestOpenDriverValidation(t *testing.T) {
	db := testDB(t, planet.Config{})
	if _, err := (Open{Options: Options{DB: db, Template: Buy{Products: Uniform{Prefix: "p", N: 1}}}}).Run(); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := (Open{Rate: 100}).Run(); err == nil {
		t.Error("missing DB accepted")
	}
	if _, err := (Open{Options: Options{DB: db}, Rate: 100}).Run(); err == nil {
		t.Error("missing template accepted")
	}
}

func TestSpeculationRecordedInReport(t *testing.T) {
	db := testDB(t, planet.Config{})
	rep, err := Closed{
		Options: Options{
			DB:          db,
			Template:    Buy{Products: Uniform{Prefix: "s-", N: 100}},
			SpeculateAt: 0.8,
			Seed:        9,
		},
		Clients: 4, PerClient: 5,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speculated.Load() == 0 {
		t.Error("no speculation on an uncontended workload at threshold 0.8")
	}
	if rep.Perceived.Count() != rep.Total() {
		t.Errorf("perceived samples %d != total %d", rep.Perceived.Count(), rep.Total())
	}
	// Perceived latency must not exceed final latency on average.
	if rep.Perceived.Mean() > rep.Final.Mean() {
		t.Errorf("perceived mean %v above final mean %v", rep.Perceived.Mean(), rep.Final.Mean())
	}
}

func TestTransferConservesTotal(t *testing.T) {
	db := testDB(t, planet.Config{})
	tmpl := Transfer{Accounts: Uniform{Prefix: "tc-", N: 8}, Balance: 50}
	if _, err := (Closed{
		Options: Options{DB: db, Template: tmpl, Seed: 10},
		Clients: 8, PerClient: 8,
	}).Run(); err != nil {
		t.Fatal(err)
	}
	if !db.Cluster().Quiesce(5 * time.Second) {
		t.Fatal("no quiesce")
	}
	for _, r := range db.Cluster().Regions() {
		s, err := db.Session(r)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, k := range tmpl.Accounts.Keys() {
			v, _, err := s.ReadInt(k)
			if err != nil {
				t.Fatal(err)
			}
			total += v
		}
		if total != 8*50 {
			t.Errorf("%s: total balance %d, want 400", r, total)
		}
	}
}

func TestReportRates(t *testing.T) {
	r := NewReport()
	if r.CommitRate() != 0 || r.ApologyRate() != 0 || r.GoodputPerSec() != 0 {
		t.Error("empty report rates not zero")
	}
	r.Committed.Add(3)
	r.Aborted.Add(1)
	r.Rejected.Add(2)
	r.Speculated.Add(2)
	r.Apologies.Add(1)
	r.Elapsed = time.Second
	if got := r.CommitRate(); got != 0.75 {
		t.Errorf("commit rate=%v", got)
	}
	if got := r.SpeculationRate(); got != 0.5 {
		t.Errorf("speculation rate=%v", got)
	}
	if got := r.ApologyRate(); got != 0.5 {
		t.Errorf("apology rate=%v", got)
	}
	if got := r.GoodputPerSec(); got != 3 {
		t.Errorf("goodput=%v", got)
	}
	if r.Total() != 6 {
		t.Errorf("total=%d", r.Total())
	}
	if !strings.Contains(r.String(), "commit-rate=0.750") {
		t.Errorf("report string: %s", r.String())
	}
}

func TestTemplateSeeding(t *testing.T) {
	db := testDB(t, planet.Config{})
	tmpl := Buy{Products: Uniform{Prefix: "seed-", N: 3}, Stock: 9}
	tmpl.Seed(db.Cluster())
	s, err := db.Session(regions.California)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range tmpl.Products.Keys() {
		v, _, err := s.ReadInt(k)
		if err != nil || v != 9 {
			t.Errorf("seeded %s=%d err=%v", k, v, err)
		}
	}
}

func TestCheckoutTemplate(t *testing.T) {
	db := testDB(t, planet.Config{})
	tmpl := Checkout{
		Products: Uniform{Prefix: "cp-", N: 10},
		Orders:   Uniform{Prefix: "co-", N: 20},
		NItems:   3,
		Stock:    100,
	}
	rep, err := Closed{
		Options: Options{DB: db, Template: tmpl, Seed: 14},
		Clients: 4, PerClient: 5,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed.Load() == 0 {
		t.Fatal("no checkout committed")
	}
	if !db.Cluster().Quiesce(5 * time.Second) {
		t.Fatal("no quiesce")
	}
	// Each committed checkout sells exactly NItems units.
	s, err := db.Session(regions.California)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, k := range tmpl.Products.Keys() {
		v, _, err := s.ReadInt(k)
		if err != nil {
			t.Fatal(err)
		}
		total += v
	}
	wantSold := 3 * int64(rep.Committed.Load())
	if sold := 10*100 - total; sold != wantSold {
		t.Errorf("sold %d units for %d commits, want %d", sold, rep.Committed.Load(), wantSold)
	}
}

func TestReadModifyWriteDistinctKeys(t *testing.T) {
	db := testDB(t, planet.Config{})
	tmpl := ReadModifyWrite{Keys: Uniform{Prefix: "rm-", N: 4}, NKeys: 3}
	tmpl.Seed(db.Cluster())
	s, err := db.Session(regions.Virginia)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		tx, err := tmpl.Build(s, rng)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(tx.Keys()); n != 3 {
			t.Fatalf("txn writes %d keys, want 3", n)
		}
	}
}
