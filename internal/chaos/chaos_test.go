package chaos_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"planet/internal/chaos"
	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/obs"
	"planet/internal/regions"
)

// newTestEngine builds a compressed-time cluster and an engine over it.
func newTestEngine(t *testing.T, reg *obs.Registry) (*chaos.Engine, *cluster.Cluster) {
	t.Helper()
	c, err := cluster.New(cluster.Config{TimeScale: 0.01, Seed: 3, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		c.Quiesce(2 * time.Second)
	})
	eng, err := chaos.New(chaos.Config{Cluster: c, Registry: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

func TestGenerateDeterministic(t *testing.T) {
	regionList := regions.Five().Regions
	a, err := chaos.Generate(regionList, chaos.GenConfig{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaos.Generate(regionList, chaos.GenConfig{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different scenarios:\n%+v\n%+v", a, b)
	}
	other, err := chaos.Generate(regionList, chaos.GenConfig{Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Faults, other.Faults) {
		t.Fatal("different seeds produced identical schedules")
	}

	// The guaranteed core trio is present regardless of seed.
	for _, seed := range []int64{1, 2, 3, 99} {
		sc, err := chaos.Generate(regionList, chaos.GenConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		kinds := make(map[chaos.FaultKind]int)
		for _, f := range sc.Faults {
			kinds[f.Kind]++
		}
		if kinds[chaos.FaultRegionDown]+kinds[chaos.FaultLinkCut] == 0 {
			t.Errorf("seed %d: no partition fault", seed)
		}
		if kinds[chaos.FaultReplicaCrash] == 0 {
			t.Errorf("seed %d: no replica crash", seed)
		}
		if kinds[chaos.FaultLatencySpike] == 0 {
			t.Errorf("seed %d: no latency spike", seed)
		}
		for i := 1; i < len(sc.Faults); i++ {
			if sc.Faults[i].At < sc.Faults[i-1].At {
				t.Errorf("seed %d: schedule not sorted by At", seed)
			}
		}
	}
}

func TestInjectorsRecordHistoryAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	eng, c := newTestEngine(t, reg)
	rl := c.Regions()

	if err := eng.RegionDown(rl[0]); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegionUp(rl[0]); err != nil {
		t.Fatal(err)
	}
	if err := eng.CutLink(rl[1], rl[2]); err != nil {
		t.Fatal(err)
	}
	if err := eng.HealLink(rl[1], rl[2]); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetLoss(0.3); err != nil {
		t.Fatal(err)
	}
	if got := c.Net.LossRate(); got != 0.3 {
		t.Fatalf("LossRate=%v after SetLoss(0.3)", got)
	}
	if err := eng.SetLoss(0); err != nil {
		t.Fatal(err)
	}
	if err := eng.SpikeLatency(rl[0], rl[1], 4); err != nil {
		t.Fatal(err)
	}
	if got := c.Net.LinkDelayFactor(rl[0], rl[1]); got != 4 {
		t.Fatalf("LinkDelayFactor=%v after spike", got)
	}
	if err := eng.ClearLatency(rl[0], rl[1]); err != nil {
		t.Fatal(err)
	}

	hist := eng.Injected()
	if len(hist) != 8 {
		t.Fatalf("history has %d entries, want 8", len(hist))
	}
	heals := 0
	for _, h := range hist {
		if h.Heal {
			heals++
		}
	}
	if heals != 4 {
		t.Fatalf("history has %d heals, want 4", heals)
	}

	for _, check := range []struct {
		name, kind string
	}{
		{"planet_chaos_faults_total", "region-down"},
		{"planet_chaos_heals_total", "region-down"},
		{"planet_chaos_faults_total", "latency-spike"},
		{"planet_chaos_heals_total", "latency-spike"},
		{"planet_chaos_faults_total", "loss-burst"},
		{"planet_chaos_faults_total", "link-cut"},
	} {
		if v, ok := reg.Value(check.name, obs.L("kind", check.kind)); !ok || v != 1 {
			t.Errorf("%s{kind=%q} = %v (ok=%v), want 1", check.name, check.kind, v, ok)
		}
	}

	// Unknown regions and bad parameters are rejected.
	if err := eng.RegionDown("nowhere"); err == nil {
		t.Error("RegionDown accepted an unknown region")
	}
	if err := eng.SetLoss(1.5); err == nil {
		t.Error("SetLoss accepted a rate > 1")
	}
	if err := eng.SpikeLatency(rl[0], rl[1], -2); err == nil {
		t.Error("SpikeLatency accepted a negative factor")
	}
}

func TestCrashRestartRoundTrip(t *testing.T) {
	eng, c := newTestEngine(t, nil)
	victim := c.Regions()[1]
	c.SeedBytes("k", []byte("v0"))
	c.SeedInt("n", 7, 0, 100)

	rep := c.Replica(victim)
	before := rep.Snapshot()

	if err := eng.CrashReplica(victim); err != nil {
		t.Fatal(err)
	}
	if !rep.Crashed() {
		t.Fatal("replica not marked crashed")
	}
	if err := eng.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	if rep.Crashed() {
		t.Fatal("replica still marked crashed after restart")
	}
	after := rep.Snapshot()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("state changed across crash/restore:\nbefore %+v\nafter  %+v", before, after)
	}
	if rep.RecoveryRuns != 1 {
		t.Fatalf("RecoveryRuns=%d, want 1", rep.RecoveryRuns)
	}

	// Coordinator round trip.
	if err := eng.CrashCoordinator(victim); err != nil {
		t.Fatal(err)
	}
	if !c.Coordinator(victim).Crashed() {
		t.Fatal("coordinator not marked crashed")
	}
	if err := eng.RestartCoordinator(victim); err != nil {
		t.Fatal(err)
	}
	if c.Coordinator(victim).Crashed() {
		t.Fatal("coordinator still crashed after restart")
	}
}

func TestScenarioRunHealsEverything(t *testing.T) {
	eng, c := newTestEngine(t, nil)
	rl := c.Regions()
	// Unscaled seconds compress 100x through TimeScale 0.01.
	sc := chaos.Scenario{Name: "t", Faults: []chaos.Fault{
		{At: 1 * time.Second, Duration: 2 * time.Second, Kind: chaos.FaultLatencySpike, From: rl[0], To: rl[1], Factor: 5},
		{At: 2 * time.Second, Kind: chaos.FaultLossBurst, Rate: 0.4}, // unbounded: healed at scenario end
		{At: 3 * time.Second, Duration: 2 * time.Second, Kind: chaos.FaultReplicaCrash, Region: rl[2]},
	}}
	if err := eng.Run(sc); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(sc); err == nil {
		t.Fatal("second Run while running did not error")
	}
	eng.Wait()

	if eng.Running() {
		t.Fatal("Running() true after Wait")
	}
	if got := c.Net.LossRate(); got != 0 {
		t.Fatalf("loss rate %v after scenario end, want 0 (auto-heal)", got)
	}
	if got := c.Net.LinkDelayFactor(rl[0], rl[1]); got != 1 {
		t.Fatalf("delay factor %v after scenario end, want 1", got)
	}
	if c.Replica(rl[2]).Crashed() {
		t.Fatal("replica still crashed after scenario end")
	}

	// Stop aborts early and still heals.
	sc2 := chaos.Scenario{Name: "t2", Faults: []chaos.Fault{
		{At: 0, Kind: chaos.FaultRegionDown, Region: rl[3]},
		{At: time.Hour, Kind: chaos.FaultRegionDown, Region: rl[4]}, // never fires
	}}
	if err := eng.Run(sc2); err != nil {
		t.Fatal(err)
	}
	// Let the first fault land, then abort.
	deadline := time.Now().Add(2 * time.Second)
	for {
		found := false
		for _, h := range eng.Injected() {
			if h.Kind == chaos.FaultRegionDown && strings.Contains(h.Detail, string(rl[3])) && !h.Heal {
				found = true
			}
		}
		if found || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	eng.Stop()
	healed := false
	for _, h := range eng.Injected() {
		if h.Kind == chaos.FaultRegionDown && h.Heal && strings.Contains(h.Detail, string(rl[3])) {
			healed = true
		}
	}
	if !healed {
		t.Fatal("Stop did not heal the outstanding region blackout")
	}

	// Validation rejects malformed scenarios before starting.
	bad := chaos.Scenario{Faults: []chaos.Fault{{Kind: chaos.FaultRegionDown, Region: "nowhere"}}}
	if err := eng.Run(bad); err == nil {
		t.Fatal("Run accepted an unknown region")
	}
}

// newVirtualCluster builds a compressed-time cluster on the virtual clock.
func newVirtualCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{TimeScale: 0.01, Seed: 3, VirtualTime: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		c.Quiesce(2 * time.Second)
	})
	return c
}

// TestHistoryOnClusterClock: the engine stamps its history on the cluster
// clock its timelines run on, so on a virtual clock each entry's At is the
// run's start plus the fault's scheduled (scaled) offset, to the
// nanosecond.
func TestHistoryOnClusterClock(t *testing.T) {
	c := newVirtualCluster(t)
	eng, err := chaos.New(chaos.Config{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	rl := c.Regions()
	sc := chaos.Scenario{Name: "clock", Faults: []chaos.Fault{
		{At: 1 * time.Second, Duration: 2 * time.Second, Kind: chaos.FaultLatencySpike, From: rl[0], To: rl[1], Factor: 3},
		{At: 4 * time.Second, Duration: 500 * time.Millisecond, Kind: chaos.FaultRegionDown, Region: rl[2]},
	}}
	start := c.Clock().Now()
	if err := eng.Run(sc); err != nil {
		t.Fatal(err)
	}
	eng.Wait()
	want := []time.Duration{1 * time.Second, 3 * time.Second, 4 * time.Second, 4500 * time.Millisecond}
	hist := eng.Injected()
	if len(hist) != len(want) {
		t.Fatalf("history has %d entries, want %d: %+v", len(hist), len(want), hist)
	}
	for i, h := range hist {
		if at := start.Add(c.ScaleDuration(want[i])); !h.At.Equal(at) {
			t.Errorf("entry %d (%s heal=%v) at %v, want start+%v = %v", i, h.Kind, h.Heal, h.At, c.ScaleDuration(want[i]), at)
		}
	}
}

// TestFaultReachesTrace injects a fault while one transaction is in flight
// and requires its trace to carry exactly that fault, at the injection
// instant, while a transaction decided before the fault carries none.
func TestFaultReachesTrace(t *testing.T) {
	c := newVirtualCluster(t)
	db, err := planet.Open(planet.Config{Cluster: c, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := chaos.New(chaos.Config{Cluster: c, Faults: db.Spans().Faults()})
	if err != nil {
		t.Fatal(err)
	}
	rl := c.Regions()
	c.SeedInt("n", 0, 0, 1000)
	s, err := db.Session(rl[0])
	if err != nil {
		t.Fatal(err)
	}
	commit := func() *planet.Handle {
		tx := s.Begin()
		tx.Add("n", 1)
		h, err := tx.Commit(planet.CommitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	faults := func(h *planet.Handle) []obs.Event {
		tr, ok := db.Spans().Trace(h.ID())
		if !ok {
			t.Fatalf("no trace for %s", h.ID())
		}
		var out []obs.Event
		for _, e := range tr.Events {
			if e.Kind == obs.EvFault {
				out = append(out, e)
			}
		}
		return out
	}

	before := commit()
	before.Wait()
	clk := c.Clock()
	clk.Sleep(time.Millisecond)
	inFlight := commit()
	clk.Sleep(100 * time.Microsecond)
	select {
	case <-inFlight.Done():
		t.Fatal("transaction decided before the fault")
	default:
	}
	injected := clk.Now()
	if err := eng.SpikeLatency(rl[0], rl[1], 2); err != nil {
		t.Fatal(err)
	}
	o := inFlight.Wait()
	clk.Sleep(time.Millisecond)
	if err := eng.ClearLatency(rl[0], rl[1]); err != nil { // after the decision: in no trace
		t.Fatal(err)
	}

	got := faults(inFlight)
	if len(got) != 1 {
		t.Fatalf("in-flight trace carries %d faults, want 1: %+v", len(got), got)
	}
	if !got[0].At.Equal(injected) || got[0].At.Sub(o.Submitted) != 100*time.Microsecond {
		t.Errorf("fault at +%v, want +100µs (the injection)", got[0].At.Sub(o.Submitted))
	}
	if !strings.Contains(got[0].Note, "latency") {
		t.Errorf("fault note %q", got[0].Note)
	}
	if got := faults(before); len(got) != 0 {
		t.Errorf("trace decided before the fault carries %+v", got)
	}
}
