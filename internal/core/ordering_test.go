package planet_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/regions"
	"planet/internal/txn"
	"planet/internal/vclock"
	"planet/internal/workload"
)

// callbackLog records callback invocations for one transaction in order.
type callbackLog struct {
	mu    sync.Mutex
	names []string
}

func (l *callbackLog) add(name string) {
	l.mu.Lock()
	l.names = append(l.names, name)
	l.mu.Unlock()
}

func (l *callbackLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.names...)
}

// TestCallbackOrderingGuaranteeUnderLoad runs many concurrent transactions
// with every callback registered and asserts, per transaction, the
// documented ordering contract:
//
//	accept ≤ progress* ≤ speculative ≤ final ≤ apology
//
// and the exactly-once guarantees for accept, speculative, final, apology.
func TestCallbackOrderingGuaranteeUnderLoad(t *testing.T) {
	c, err := cluster.New(cluster.Config{TimeScale: 0.005, Seed: 55, CommitTimeout: 120 * time.Second})
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
	// A contended keyspace so a healthy mix of commits and aborts — and
	// therefore apologies — occurs.
	tmpl := workload.ReadModifyWrite{
		Keys: workload.Hotspot{Prefix: "ord-", HotKeys: 2, ColdKeys: 100, HotProb: 0.6},
	}
	tmpl.Seed(c)

	const n = 120
	var wg sync.WaitGroup
	logs := make([]*callbackLog, n)
	outcomes := make([]txn.Outcome, n)
	for i := 0; i < n; i++ {
		i := i
		region := c.Regions()[i%5]
		logs[i] = &callbackLog{}
		s, err := db.Session(region)
		if err != nil {
			t.Fatal(err)
		}
		tx := s.Begin()
		key := fmt.Sprintf("ord-hot-%06d", i%2)
		if _, err := tx.Read(key); err != nil {
			t.Fatal(err)
		}
		tx.Set(key, []byte{byte(i)})
		lg := logs[i]
		h, err := tx.Commit(planet.CommitOptions{
			SpeculateAt:   0.6,
			OnAccept:      func(planet.Progress) { lg.add("accept") },
			OnProgress:    func(planet.Progress) { lg.add("progress") },
			OnSpeculative: func(planet.Progress) { lg.add("speculative") },
			OnFinal:       func(txn.Outcome) { lg.add("final") },
			OnApology:     func(txn.Outcome) { lg.add("apology") },
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes[i] = h.Wait()
		}()
	}
	wg.Wait()

	sawApology := false
	for i, lg := range logs {
		names := lg.snapshot()
		counts := map[string]int{}
		// Ordering: accept must be first; once final is seen nothing but
		// the apology may follow.
		finalAt := -1
		for j, name := range names {
			counts[name]++
			switch name {
			case "accept":
				if j != 0 {
					t.Errorf("txn %d: accept at position %d: %v", i, j, names)
				}
			case "final":
				finalAt = j
			case "apology":
				if finalAt < 0 || j != finalAt+1 {
					t.Errorf("txn %d: apology not immediately after final: %v", i, names)
				}
				sawApology = true
			case "progress", "speculative":
				if finalAt >= 0 {
					t.Errorf("txn %d: %s after final: %v", i, name, names)
				}
			}
		}
		for _, once := range []string{"accept", "speculative", "final", "apology"} {
			if counts[once] > 1 {
				t.Errorf("txn %d: %s fired %d times: %v", i, once, counts[once], names)
			}
		}
		if counts["final"] != 1 {
			t.Errorf("txn %d: final fired %d times", i, counts["final"])
		}
		// Speculative must come before final and after accept.
		if counts["speculative"] == 1 {
			si := indexOf(names, "speculative")
			if si > finalAt || si == 0 {
				t.Errorf("txn %d: speculative at %d, final at %d: %v", i, si, finalAt, names)
			}
		}
		// Apology iff speculated and aborted.
		wantApology := outcomes[i].Speculated && !outcomes[i].Committed && !outcomes[i].Rejected
		if (counts["apology"] == 1) != wantApology {
			t.Errorf("txn %d: apology=%d, outcome %+v", i, counts["apology"], outcomes[i])
		}
	}
	if !sawApology {
		t.Log("note: no apologies occurred this run (contention too low)")
	}
}

func indexOf(names []string, want string) int {
	for i, n := range names {
		if n == want {
			return i
		}
	}
	return -1
}

// TestVirtualCallbacksHoldNoGoroutines runs one open-loop round by hand on
// a virtual cluster — every arrival started inline with
// Group.Start, finished through Handle.OnDone — and samples the process's
// goroutine count from OnAccept, when the whole round is in flight. Neither
// a handle nor a waiting arrival may cost a goroutine: the count stays
// within a small constant of what it was before the round.
func TestVirtualCallbacksHoldNoGoroutines(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{
		Topology:      regions.Three(),
		VirtualTime:   true,
		CommitTimeout: 2 * time.Second,
	})
	c := db.Cluster()
	const n = 2500
	for i := 0; i < n; i++ {
		c.SeedInt(fmt.Sprintf("g-%d", i), 10, 0, 1000)
	}
	s := session(t, db, c.Regions()[0])

	before := runtime.NumGoroutine()
	var maxGoroutines int
	var maxInFlight int64
	committed := 0
	g := vclock.NewGroup(c.Clock())
	for i := 0; i < n; i++ {
		i := i
		g.Start(func(done func()) {
			tx := s.Begin()
			tx.Add(fmt.Sprintf("g-%d", i), -1)
			h, err := tx.Commit(planet.CommitOptions{
				// Callbacks of one clock run one at a time: no lock.
				OnAccept: func(planet.Progress) {
					maxGoroutines = max(maxGoroutines, runtime.NumGoroutine())
					maxInFlight = max(maxInFlight, db.InFlight())
				},
				OnFinal: func(o txn.Outcome) {
					if o.Committed {
						committed++
					}
				},
			})
			if err != nil {
				t.Error(err)
				done()
				return
			}
			h.OnDone(done)
		})
	}
	g.Wait()

	if committed != n {
		t.Fatalf("%d of %d transactions committed", committed, n)
	}
	if maxInFlight < 2000 {
		t.Fatalf("at most %d transactions were in flight at once, want >= 2000", maxInFlight)
	}
	if extra := maxGoroutines - before; extra > 8 {
		t.Fatalf("%d goroutines with %d transactions in flight, %d before the round: %d extra, want a small constant",
			maxGoroutines, maxInFlight, before, extra)
	}
}

// TestOnDoneAfterFinish: OnDone on a handle that already finished runs its
// function at once, on the caller's goroutine.
func TestOnDoneAfterFinish(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	db.Cluster().SeedInt("done-k", 0, 0, 100)
	s := session(t, db, regions.California)
	tx := s.Begin()
	tx.Add("done-k", 1)
	h, err := tx.Commit(planet.CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h.Wait()
	ran := false
	h.OnDone(func() { ran = true })
	if !ran {
		t.Fatal("OnDone on a finished handle did not run inline")
	}
}

// TestRealClockCallbacksPerHandle pins the real-clock half of the callback
// contract: one handle's callbacks run one at a time in stage order, and a
// callback that blocks holds back its own handle only — a second handle
// submitted behind it runs to its final callback and finishes meanwhile.
func TestRealClockCallbacksPerHandle(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	db.Cluster().SeedInt("slow-k", 0, 0, 100)
	db.Cluster().SeedInt("fast-k", 0, 0, 100)
	s := session(t, db, regions.California)

	release := make(chan struct{})
	var running atomic.Int32
	slowLog := &callbackLog{}
	step := func(name string) {
		if running.Add(1) != 1 {
			t.Errorf("callback %s overlapped another of the same handle", name)
		}
		slowLog.add(name)
		if name == "accept" {
			<-release // a slow callback: blocks until the other handle is done
		}
		running.Add(-1)
	}
	slowTx := s.Begin()
	slowTx.Add("slow-k", 1)
	slow, err := slowTx.Commit(planet.CommitOptions{
		OnAccept:   func(planet.Progress) { step("accept") },
		OnProgress: func(planet.Progress) { step("progress") },
		OnFinal:    func(txn.Outcome) { step("final") },
	})
	if err != nil {
		t.Fatal(err)
	}

	fastTx := s.Begin()
	fastTx.Add("fast-k", 1)
	fast, err := fastTx.Commit(planet.CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-fast.Done():
	case <-time.After(20 * time.Second):
		t.Fatal("a blocked callback on one handle delayed another handle")
	}
	select {
	case <-slow.Done():
		t.Fatal("handle finished while its accept callback was still blocked")
	default:
	}
	close(release)
	if o := slow.Wait(); !o.Committed {
		t.Fatalf("slow handle: %+v", o)
	}
	names := slowLog.snapshot()
	if len(names) < 3 || names[0] != "accept" || names[len(names)-1] != "final" {
		t.Fatalf("stage order = %v, want accept, progress..., final", names)
	}
	for _, name := range names[1 : len(names)-1] {
		if name != "progress" {
			t.Fatalf("stage order = %v, want accept, progress..., final", names)
		}
	}
}
