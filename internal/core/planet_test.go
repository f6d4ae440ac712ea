package planet_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/txn"
	"planet/internal/vclock"
)

// openTestDB builds a five-region cluster with compressed time and a DB.
// The cluster runs on its own virtual clock, whose execution slot the test
// goroutine holds.
func openTestDB(t *testing.T, cfg planet.Config, ccfg cluster.Config) *planet.DB {
	t.Helper()
	if ccfg.TimeScale == 0 {
		ccfg.TimeScale = 0.01
	}
	if ccfg.Seed == 0 {
		ccfg.Seed = 11
	}
	c, err := cluster.New(ccfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		c.Quiesce(2 * time.Second)
	})
	cfg.Cluster = c
	db, err := planet.Open(cfg)
	if err != nil {
		t.Fatalf("planet.Open: %v", err)
	}
	return db
}

func session(t *testing.T, db *planet.DB, r simnet.Region) *planet.Session {
	t.Helper()
	s, err := db.Session(r)
	if err != nil {
		t.Fatalf("Session(%s): %v", r, err)
	}
	return s
}

func TestCallbackOrderAndStages(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	db.Cluster().SeedBytes("k", []byte("v0"))
	s := session(t, db, regions.California)

	tx := s.Begin()
	if _, err := tx.Read("k"); err != nil {
		t.Fatalf("Read: %v", err)
	}
	tx.Set("k", []byte("v1"))

	var mu sync.Mutex
	var order []string
	record := func(name string) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}
	h, err := tx.Commit(planet.CommitOptions{
		SpeculateAt:   0.90,
		OnAccept:      func(planet.Progress) { record("accept") },
		OnSpeculative: func(p planet.Progress) { record("speculative") },
		OnFinal:       func(txn.Outcome) { record("final") },
		OnApology:     func(txn.Outcome) { record("apology") },
	})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	o := h.Wait()
	if !o.Committed {
		t.Fatalf("want commit, got %v", o)
	}
	if h.Stage() != txn.StageCommitted {
		t.Errorf("stage = %v, want committed", h.Stage())
	}

	mu.Lock()
	defer mu.Unlock()
	if len(order) < 2 || order[0] != "accept" || order[len(order)-1] != "final" {
		t.Fatalf("callback order %v: want accept first, final last", order)
	}
	for _, name := range order {
		if name == "apology" {
			t.Error("apology fired for a committed transaction")
		}
	}
}

func TestLikelihoodRisesToOneOnCommit(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	db.Cluster().SeedBytes("k", []byte("v0"))
	s := session(t, db, regions.Virginia)

	var lastLikelihood atomic.Uint64 // bits of float64
	tx := s.Begin()
	tx.Set("k", []byte("v1"))
	h, err := tx.Commit(planet.CommitOptions{
		OnProgress: func(p planet.Progress) {
			lastLikelihood.Store(uint64(p.Likelihood * 1e6))
		},
	})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	o := h.Wait()
	if !o.Committed {
		t.Fatalf("want commit, got %v", o)
	}
	if h.Likelihood() != 1 {
		t.Errorf("final likelihood = %v, want 1", h.Likelihood())
	}
}

func TestGuaranteedApology(t *testing.T) {
	// Force an abort after speculation: speculate at a low threshold on a
	// transaction that must abort on a version conflict at every replica.
	// With a fresh predictor the prior is optimistic, so likelihood starts
	// high and the speculation fires at submit-time vote flow; the fatal
	// rejection then aborts, and the apology must follow.
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	db.Cluster().SeedBytes("k", []byte("v0"))
	s := session(t, db, regions.Tokyo)

	// Move the version forward so the stale write below conflicts.
	tx0 := s.Begin()
	tx0.Set("k", []byte("v1"))
	h0, err := tx0.Commit(planet.CommitOptions{})
	if err != nil {
		t.Fatalf("setup commit: %v", err)
	}
	if o := h0.Wait(); !o.Committed {
		t.Fatalf("setup commit failed: %v", o)
	}

	// Stale transaction: speculates optimistically off the prior, then
	// aborts. SpeculateAt is below the fresh-predictor prior so the
	// speculative callback fires on the accept-stage likelihood before
	// any reject arrives — the "guess" that demands an apology.
	var speculated, apologized atomic.Bool
	staleTx := s.Begin()
	staleTx.Set("k", []byte("v2"))
	// Rewind the recorded read version to force a conflict.
	h, err := commitWithStaleVersion(t, db, s, "k", []byte("v2"), planet.CommitOptions{
		SpeculateAt:   0.5,
		OnSpeculative: func(planet.Progress) { speculated.Store(true) },
		OnApology:     func(txn.Outcome) { apologized.Store(true) },
	})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	_ = staleTx
	o := h.Wait()
	if o.Committed {
		t.Fatal("stale write committed")
	}
	if speculated.Load() && !apologized.Load() {
		t.Fatal("speculated then aborted without an apology")
	}
	if !speculated.Load() && apologized.Load() {
		t.Fatal("apology without speculation")
	}
	if o.Speculated != speculated.Load() {
		t.Errorf("outcome.Speculated=%v, callbacks saw %v", o.Speculated, speculated.Load())
	}
}

// commitWithStaleVersion builds a transaction whose Set carries a stale
// read version (the seed version 0) even though the record has moved on.
func commitWithStaleVersion(t *testing.T, db *planet.DB, s *planet.Session, key string, val []byte, opts planet.CommitOptions) (*planet.Handle, error) {
	t.Helper()
	if !db.Cluster().Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce before staleness setup")
	}
	tx := s.Begin()
	// Set without Read records the *current* version; to force staleness
	// we commit against a version we know is outdated by writing through
	// a second committed transaction in between.
	tx.Set(key, val)
	// Now advance the record underneath the buffered write.
	tx2 := s.Begin()
	tx2.Set(key, []byte("interloper"))
	h2, err := tx2.Commit(planet.CommitOptions{})
	if err != nil {
		t.Fatalf("interloper commit: %v", err)
	}
	if o := h2.Wait(); !o.Committed {
		t.Fatalf("interloper did not commit: %v", o)
	}
	if !db.Cluster().Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	return tx.Commit(opts)
}

func TestAdmissionControlMaxInFlight(t *testing.T) {
	db := openTestDB(t, planet.Config{
		Admission: planet.AdmissionPolicy{MaxInFlight: 1},
	}, cluster.Config{})
	db.Cluster().SeedInt("n", 0, -1000, 1000)
	s := session(t, db, regions.Ireland)

	// First transaction occupies the slot; submit a second immediately.
	tx1 := s.Begin()
	tx1.Add("n", 1)
	h1, err := tx1.Commit(planet.CommitOptions{})
	if err != nil {
		t.Fatalf("Commit 1: %v", err)
	}
	tx2 := s.Begin()
	tx2.Add("n", 1)
	h2, err := tx2.Commit(planet.CommitOptions{})
	if err != nil {
		t.Fatalf("Commit 2: %v", err)
	}
	o2 := h2.Wait()
	if !o2.Rejected || !errors.Is(o2.Err, planet.ErrAdmission) {
		t.Fatalf("second txn: want admission rejection, got %v", o2)
	}
	if h2.Stage() != txn.StageRejected {
		t.Errorf("stage = %v, want rejected", h2.Stage())
	}
	if o1 := h1.Wait(); !o1.Committed {
		t.Fatalf("first txn should commit, got %v", o1)
	}
	st := db.Stats()
	if st.Rejected != 1 || st.Committed != 1 {
		t.Errorf("stats = %+v, want 1 committed / 1 rejected", st)
	}
}

func TestAdmissionControlLikelihoodThreshold(t *testing.T) {
	db := openTestDB(t, planet.Config{
		Admission: planet.AdmissionPolicy{MinLikelihood: 0.9},
		Calibrate: true,
	}, cluster.Config{})
	db.Cluster().SeedBytes("hot", []byte("v"))
	s := session(t, db, regions.California)

	// Poison the predictor: rejected votes on "hot" drive its accept
	// probability down, after which admission must reject up front.
	// Healthy traffic on other keys keeps the global rate high, so the
	// rejection is key-targeted.
	pred := db.Predictor(regions.California)
	for i := 0; i < 200; i++ {
		pred.ObserveVote("hot", regions.Virginia, false, 40*time.Millisecond)
		for j := 0; j < 10; j++ {
			pred.ObserveVote("cold", regions.Virginia, true, 40*time.Millisecond)
		}
	}
	if p := pred.LikelihoodAtSubmit([]string{"hot"}); p > 0.5 {
		t.Fatalf("poisoned prior = %v, want low", p)
	}

	tx := s.Begin()
	tx.Set("hot", []byte("w"))
	h, err := tx.Commit(planet.CommitOptions{})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	o := h.Wait()
	if !o.Rejected {
		t.Fatalf("want admission rejection, got %v", o)
	}
	// A cold key sails through.
	db.Cluster().SeedBytes("cold", []byte("v"))
	tx2 := s.Begin()
	tx2.Set("cold", []byte("w"))
	h2, err := tx2.Commit(planet.CommitOptions{})
	if err != nil {
		t.Fatalf("Commit cold: %v", err)
	}
	if o2 := h2.Wait(); !o2.Committed {
		t.Fatalf("cold txn should commit, got %v", o2)
	}
}

func TestDeadlineCallbackFiresWhileRunning(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	db.Cluster().SeedBytes("k", []byte("v"))
	s := session(t, db, regions.Singapore)

	var deadlineFired atomic.Bool
	tx := s.Begin()
	tx.Set("k", []byte("w"))
	h, err := tx.Commit(planet.CommitOptions{
		Deadline:   50 * time.Microsecond, // far below one scaled RTT
		OnDeadline: func(p planet.Progress) { deadlineFired.Store(true) },
	})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	o := h.Wait()
	if !o.Committed {
		t.Fatalf("txn should still commit after deadline, got %v", o)
	}
	if !deadlineFired.Load() {
		t.Error("deadline callback never fired")
	}
}

func TestReadYourCluster(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	db.Cluster().SeedInt("stock", 10, 0, 100)
	s := session(t, db, regions.Virginia)

	v, _, err := s.ReadInt("stock")
	if err != nil || v != 10 {
		t.Fatalf("ReadInt = %d, %v; want 10", v, err)
	}
	if _, _, err := s.ReadBytes("missing"); !errors.Is(err, planet.ErrKeyNotFound) {
		t.Fatalf("missing key: %v, want ErrKeyNotFound", err)
	}
}

func TestMixedSetAddRejected(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	db.Cluster().SeedInt("n", 0, 0, 10)
	s := session(t, db, regions.California)

	tx := s.Begin()
	tx.Set("n", []byte("x"))
	tx.Add("n", 1)
	if _, err := tx.Commit(planet.CommitOptions{}); err == nil {
		t.Fatal("Set-then-Add committed")
	}

	// The reverse order must fail just as loudly (not silently drop the Add).
	tx2 := s.Begin()
	tx2.Add("n", 1)
	tx2.Set("n", []byte("x"))
	if _, err := tx2.Commit(planet.CommitOptions{}); err == nil {
		t.Fatal("Add-then-Set committed")
	}
}

func TestDoubleCommitRejected(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	s := session(t, db, regions.California)
	tx := s.Begin()
	if _, err := tx.Commit(planet.CommitOptions{}); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	if _, err := tx.Commit(planet.CommitOptions{}); err == nil {
		t.Fatal("second commit accepted")
	}
}

func TestConcurrentSessionsManyTransactions(t *testing.T) {
	db := openTestDB(t, planet.Config{Calibrate: true}, cluster.Config{})
	for i := 0; i < 16; i++ {
		db.Cluster().SeedInt(fmt.Sprintf("acct-%d", i), 1000, 0, 1_000_000)
	}

	g := vclock.NewGroup(db.Cluster().Clock())
	var committed atomic.Uint64
	for w := 0; w < 8; w++ {
		g.Go(func() {
			region := db.Cluster().Regions()[w%5]
			s, err := db.Session(region)
			if err != nil {
				t.Errorf("Session: %v", err)
				return
			}
			for i := 0; i < 10; i++ {
				tx := s.Begin()
				tx.Add(fmt.Sprintf("acct-%d", (w*10+i)%16), -1)
				tx.Add(fmt.Sprintf("acct-%d", (w*10+i+7)%16), 1)
				h, err := tx.Commit(planet.CommitOptions{})
				if err != nil {
					t.Errorf("Commit: %v", err)
					return
				}
				if o := h.Wait(); o.Committed {
					committed.Add(1)
				}
			}
		})
	}
	g.Wait()

	if committed.Load() == 0 {
		t.Fatal("no transaction committed")
	}
	if !db.Cluster().Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	// Money conservation: commutative deltas are ±1 pairs, so the total
	// must still be 16 × 1000 at every replica.
	for _, r := range db.Cluster().Regions() {
		var total int64
		for i := 0; i < 16; i++ {
			v, _, err := mustRead(db, r, fmt.Sprintf("acct-%d", i))
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			total += v
		}
		if total != 16000 {
			t.Errorf("%s: total=%d, want 16000", r, total)
		}
	}
}

func mustRead(db *planet.DB, r simnet.Region, key string) (int64, int64, error) {
	s, err := db.Session(r)
	if err != nil {
		return 0, 0, err
	}
	return s.ReadInt(key)
}
