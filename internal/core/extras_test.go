package planet_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/mdcc"
	"planet/internal/regions"
	"planet/internal/txn"
	"planet/internal/vclock"
)

func TestQuorumReadSeesPropagatedWrites(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	db.Cluster().SeedBytes("k", []byte("v0"))
	s := session(t, db, regions.California)

	tx := s.Begin()
	tx.Set("k", []byte("v1"))
	h, err := tx.Commit(planet.CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if o := h.Wait(); !o.Committed {
		t.Fatalf("commit failed: %v", o)
	}
	if !db.Cluster().Quiesce(5 * time.Second) {
		t.Fatal("no quiesce")
	}

	// Quorum read from the farthest region sees the write.
	far := session(t, db, regions.Singapore)
	v, ver, err := far.QuorumReadBytes("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v1" || ver != 1 {
		t.Errorf("quorum read %q v%d, want v1 v1", v, ver)
	}
}

func TestQuorumReadFresherThanStaleLocal(t *testing.T) {
	// Partition Singapore so its local replica misses a commit, then show
	// the quorum read (which doesn't need Singapore) still returns the
	// fresh value while the local read is stale.
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	db.Cluster().SeedInt("n", 1, 0, 100)
	db.Cluster().Quiesce(5 * time.Second)

	db.Cluster().Net.SetRegionDown(regions.Singapore, true)
	s := session(t, db, regions.California)
	tx := s.Begin()
	tx.Add("n", 5)
	h, err := tx.Commit(planet.CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if o := h.Wait(); !o.Committed {
		t.Fatalf("commit with one region down failed: %v", o)
	}
	if !db.Cluster().Quiesce(5 * time.Second) {
		t.Fatal("no quiesce")
	}
	db.Cluster().Net.SetRegionDown(regions.Singapore, false)

	sg := session(t, db, regions.Singapore)
	local, _, err := sg.ReadInt("n")
	if err != nil {
		t.Fatal(err)
	}
	if local != 1 {
		t.Fatalf("expected stale local read 1 at partitioned replica, got %d", local)
	}
	quorum, _, err := sg.QuorumReadInt("n")
	if err != nil {
		t.Fatal(err)
	}
	if quorum != 6 {
		t.Errorf("quorum read %d, want fresh value 6", quorum)
	}
}

func TestQuorumReadMissingKey(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	s := session(t, db, regions.Ireland)
	if _, _, err := s.QuorumReadBytes("ghost"); !errors.Is(err, planet.ErrKeyNotFound) {
		t.Errorf("missing key error = %v", err)
	}
}

func TestQuorumReadTimesOutWithoutMajority(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	db.Cluster().SeedBytes("k", []byte("v"))
	// Isolate three of five regions: no majority can answer.
	db.Cluster().Net.SetRegionDown(regions.Virginia, true)
	db.Cluster().Net.SetRegionDown(regions.Ireland, true)
	db.Cluster().Net.SetRegionDown(regions.Singapore, true)
	s := session(t, db, regions.California)
	if _, _, err := s.QuorumReadBytes("k"); err == nil {
		t.Error("quorum read succeeded without a majority")
	}
}

func TestRunRetriesConflicts(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	db.Cluster().SeedInt("counter", 0, 0, 1<<40)

	// Concurrent increments via physical writes conflict; Run's retry
	// loop must still complete every one of them exactly once.
	const workers, each = 6, 4
	g := vclock.NewGroup(db.Cluster().Clock())
	var failures atomic.Int64
	for w := 0; w < workers; w++ {
		region := db.Cluster().Regions()[w%5]
		g.Go(func() {
			s, err := db.Session(region)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < each; i++ {
				_, err := s.Run(20, func(tx *planet.Txn) error {
					v, err := tx.ReadInt("counter")
					if err != nil {
						return err
					}
					tx.Set("counter", []byte(fmt.Sprintf("%d", v)))
					return nil
				})
				if err != nil {
					failures.Add(1)
				}
			}
		})
	}
	g.Wait()
	st := db.Stats()
	if st.Committed == 0 {
		t.Fatal("nothing committed")
	}
	// Every worker either committed (possibly after retries) or exhausted
	// 20 attempts; with 20 attempts on 6 workers, failures should be rare.
	if failures.Load() > workers*each/2 {
		t.Errorf("%d/%d Run calls exhausted retries", failures.Load(), workers*each)
	}
	if st.Aborted == 0 {
		t.Log("no conflicts encountered (racy but unusual)")
	}
}

func TestRunClosureErrorNotRetried(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	s := session(t, db, regions.California)
	calls := 0
	boom := errors.New("boom")
	_, err := s.Run(5, func(*planet.Txn) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("err=%v", err)
	}
	if calls != 1 {
		t.Errorf("closure called %d times, want 1", calls)
	}
}

func TestRunBoundViolationNotRetried(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	db.Cluster().SeedInt("stock", 1, 0, 10)
	s := session(t, db, regions.Tokyo)
	o, err := s.Run(5, func(tx *planet.Txn) error {
		tx.Add("stock", -5)
		return nil
	})
	if err == nil || o.Committed {
		t.Errorf("bound violation retried to success: %v %v", o, err)
	}
	if got := db.Stats().Submitted; got != 1 {
		t.Errorf("submitted %d times, want 1 (no retry)", got)
	}
}

func TestAdmissionProbeFraction(t *testing.T) {
	db := openTestDB(t, planet.Config{
		Admission: planet.AdmissionPolicy{MinLikelihood: 0.9, ProbeFraction: 0.5},
	}, cluster.Config{})
	db.Cluster().SeedBytes("hot", []byte("v"))

	// Poison the hot key while keeping the global rate healthy.
	pred := db.Predictor(regions.California)
	for i := 0; i < 200; i++ {
		pred.ObserveVote("hot", regions.Virginia, false, 40*time.Millisecond)
		for j := 0; j < 10; j++ {
			pred.ObserveVote("other", regions.Virginia, true, 40*time.Millisecond)
		}
	}

	s := session(t, db, regions.California)
	admitted := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		tx := s.Begin()
		tx.Set("hot", []byte("w"))
		h, err := tx.Commit(planet.CommitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if o := h.Wait(); !o.Rejected {
			admitted++
		}
	}
	// Probe fraction 0.5: roughly half the doomed transactions still run.
	if admitted < trials/4 || admitted > trials*3/4 {
		t.Errorf("probes admitted %d/%d, want ≈%d", admitted, trials, trials/2)
	}
}

func TestStatsAccounting(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	db.Cluster().SeedInt("n", 0, 0, 100)
	s := session(t, db, regions.Virginia)

	for i := 0; i < 5; i++ {
		tx := s.Begin()
		tx.Add("n", 1)
		h, err := tx.Commit(planet.CommitOptions{SpeculateAt: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		h.Wait()
	}
	st := db.Stats()
	if st.Submitted != 5 || st.Committed != 5 {
		t.Errorf("stats %+v", st)
	}
	if st.Apologies != 0 {
		t.Errorf("apologies on committed txns: %+v", st)
	}
	if st.Speculated == 0 {
		t.Error("no speculation recorded")
	}
}

func TestHandleProgressSnapshot(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	db.Cluster().SeedBytes("k", []byte("v"))
	s := session(t, db, regions.California)
	tx := s.Begin()
	tx.Set("k", []byte("w"))
	h, err := tx.Commit(planet.CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := h.Progress()
	if p.OptionsTotal != 1 || p.VotesExpected != 5 {
		t.Errorf("snapshot %+v", p)
	}
	o := h.Wait()
	if !o.Committed {
		t.Fatalf("outcome %v", o)
	}
	final := h.Progress()
	if final.Stage != txn.StageCommitted || final.Likelihood != 1 {
		t.Errorf("final snapshot %+v", final)
	}
	if final.String() == "" {
		t.Error("empty progress string")
	}
}

func TestOutcomeViaDoneChannel(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	s := session(t, db, regions.Ireland)
	tx := s.Begin()
	h, err := tx.Commit(planet.CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := db.Cluster().Clock().NewEvent()
	h.OnDone(done.Fire)
	if !done.WaitTimeout(10 * time.Minute) {
		t.Fatal("Done never closed")
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("Done channel still open after the handle finished")
	}
	if o := h.Wait(); !o.Committed {
		t.Errorf("read-only txn outcome %v", o)
	}
}

// TestSubmitToCrashedCoordinator: a coordinator that is down refuses the
// submit, so the transaction aborts with the coordinator's error without
// ever entering commit processing — it neither speculates from its prior
// nor apologizes.
func TestSubmitToCrashedCoordinator(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	if err := db.Cluster().CrashCoordinator(regions.California); err != nil {
		t.Fatal(err)
	}
	s := session(t, db, regions.California)
	var speculated, apologized atomic.Int32
	tx := s.Begin()
	tx.Add("n", 1)
	h, err := tx.Commit(planet.CommitOptions{
		SpeculateAt:   0.5,
		OnSpeculative: func(planet.Progress) { speculated.Add(1) },
		OnApology:     func(txn.Outcome) { apologized.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	o := h.Wait()
	if o.Committed || !errors.Is(o.Err, mdcc.ErrCrashed) || o.Speculated {
		t.Fatalf("outcome %+v, want an abort with ErrCrashed and no speculation", o)
	}
	if n, m := speculated.Load(), apologized.Load(); n != 0 || m != 0 {
		t.Errorf("OnSpeculative fired %d times, OnApology %d; want neither", n, m)
	}
	if st := db.Stats(); st.Aborted != 1 || st.Speculated != 0 || st.Apologies != 0 {
		t.Errorf("stats %+v, want one abort, no speculation, no apology", st)
	}
}
