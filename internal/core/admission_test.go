package planet

// White-box tests for the adaptive admission controller: the per-epoch
// control laws in isolation, and end-to-end determinism of a run with the
// controller enabled on a virtual-time cluster.

import (
	"testing"
	"time"

	"planet/internal/cluster"
	"planet/internal/regions"
	"planet/internal/vclock"
)

// lawCtl builds a controller on a standalone virtual clock and never
// starts the epoch chain — the test drives step() by hand.
func lawCtl(t *testing.T, cfg AdaptiveAdmission, static AdmissionPolicy) *admissionCtl {
	t.Helper()
	v := vclock.NewVirtual()
	t.Cleanup(v.Shutdown)
	return newAdmissionCtl(v, cfg, static)
}

func TestAdmissionControllerLaws(t *testing.T) {
	c := lawCtl(t, AdaptiveAdmission{
		Enabled:    true,
		TargetP99:  500 * time.Millisecond,
		MinDecided: 4,
	}, AdmissionPolicy{MaxInFlight: 100})

	if got := c.policy(AdmissionPolicy{}); got.MaxInFlight != 100 || got.MinLikelihood != 0 {
		t.Fatalf("seed policy = %+v, want MaxInFlight=100 MinLikelihood=0", got)
	}

	// Epoch 1: within SLO, zero aborts — additive window growth, no shed.
	for i := 0; i < 10; i++ {
		c.observeFinal(true, 100*time.Millisecond)
	}
	c.step()
	if st := c.state(); st.MaxInFlight != 100+aimdStep || st.MinLikelihood != 0 {
		t.Fatalf("after healthy epoch: %+v", st)
	}

	// Epoch 2: p99 breaches the SLO — multiplicative contraction.
	for i := 0; i < 10; i++ {
		c.observeFinal(true, 5*time.Second)
	}
	c.step()
	want := (100 + aimdStep) * 7 / 10
	if st := c.state(); st.MaxInFlight != want {
		t.Fatalf("after SLO breach: MaxInFlight=%d, want %d", st.MaxInFlight, want)
	}

	// Epoch 3: high abort rate with a spread of priors — the shed fraction
	// rises and the likelihood bar lands at that quantile of the offered
	// load; the speculation floor rises too.
	for i := 0; i < 8; i++ {
		c.observeFinal(true, 100*time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		c.observeFinal(false, 100*time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		c.observePrior(float64(i) / 100)
	}
	c.step()
	st := c.state()
	if st.ShedFraction != 0.05 {
		t.Fatalf("shed fraction = %v, want 0.05", st.ShedFraction)
	}
	if st.MinLikelihood <= 0 || st.MinLikelihood > 0.15 {
		t.Fatalf("MinLikelihood = %v, want the ~5th percentile of uniform priors", st.MinLikelihood)
	}
	if st.SpecFloor != 0.10 {
		t.Fatalf("SpecFloor = %v, want 0.10", st.SpecFloor)
	}

	// Stall epoch: rejections but nothing decided — the window reopens
	// multiplicatively and the shed fraction backs off to zero.
	for i := 0; i < 20; i++ {
		c.observeReject()
	}
	c.step()
	st2 := c.state()
	if st2.MaxInFlight != st.MaxInFlight*2 {
		t.Fatalf("stalled epoch: MaxInFlight=%d, want %d", st2.MaxInFlight, st.MaxInFlight*2)
	}
	if st2.MinLikelihood != 0 || st2.ShedFraction != 0 {
		t.Fatalf("stalled epoch kept shedding: %+v", st2)
	}
	if st2.Epochs != 4 {
		t.Fatalf("epochs = %d, want 4", st2.Epochs)
	}

	// Thin epoch (below MinDecided): every knob holds.
	c.observeFinal(true, 10*time.Second)
	c.step()
	if st3 := c.state(); st3.MaxInFlight != st2.MaxInFlight || st3.SpecFloor != st2.SpecFloor {
		t.Fatalf("thin epoch moved knobs: %+v vs %+v", st3, st2)
	}
}

// adaptiveRun drives a contended blind-write workload through a DB with
// the adaptive controller enabled on a virtual-time cluster and returns
// the outcome stats plus the home region's final controller state.
func adaptiveRun(t *testing.T, seed int64) (Stats, AdmissionState) {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Topology:      regions.Three(),
		Seed:          seed,
		CommitTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		c.Quiesce(2 * time.Second)
	}()
	db, err := Open(Config{
		Cluster:   c,
		Admission: AdmissionPolicy{MaxInFlight: 24},
		Adaptive: AdaptiveAdmission{
			Enabled:    true,
			Epoch:      20 * time.Millisecond,
			TargetP99:  300 * time.Millisecond,
			AbortHigh:  0.10,
			MinDecided: 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SeedBytes("hot", []byte("v0"))
	c.SeedBytes("cold", []byte("v0"))
	home := regions.California
	s, err := db.Session(home)
	if err != nil {
		t.Fatal(err)
	}
	clk := s.Clock()
	handles := make([]*Handle, 0, 1000)
	for i := 0; i < 1000; i++ {
		tx := s.Begin()
		// Mostly blind writes on one hot key — overlapping submissions
		// conflict on its version — with a cold-key minority so the offered
		// load has a likelihood spread for the shed quantile to cut.
		if i%5 == 4 {
			tx.Set("cold", []byte{byte(i)})
		} else {
			tx.Set("hot", []byte{byte(i)})
		}
		h, err := tx.Commit(CommitOptions{SpeculateAt: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		clk.Sleep(500 * time.Microsecond)
	}
	for _, h := range handles {
		h.Wait()
	}
	return db.Stats(), db.AdmissionState(home)
}

// TestAdaptiveAdmissionDeterminism: two identically-seeded virtual-time
// runs with the controller enabled must land on identical outcome counts
// and identical controller state — the feedback loop is part of the
// deterministic simulation, not an outside observer of it.
func TestAdaptiveAdmissionDeterminism(t *testing.T) {
	s1, a1 := adaptiveRun(t, 42)
	s2, a2 := adaptiveRun(t, 42)
	if s1 != s2 {
		t.Errorf("stats diverged across same-seed runs:\n  %+v\n  %+v", s1, s2)
	}
	if a1 != a2 {
		t.Errorf("controller state diverged across same-seed runs:\n  %+v\n  %+v", a1, a2)
	}
	if a1.Epochs == 0 {
		t.Error("controller never ticked")
	}
	if s1.Committed == 0 {
		t.Error("nothing committed")
	}
	if s1.Aborted == 0 {
		t.Error("contended blind writes produced no aborts; workload too gentle to exercise the controller")
	}
}
