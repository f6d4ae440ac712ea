package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"planet/internal/simnet"
	"planet/internal/vclock"
)

// Fault is one scheduled fault in a scenario. Times are unscaled WAN time;
// the engine scales them through the cluster's TimeScale when running.
type Fault struct {
	// At is the injection offset from scenario start.
	At time.Duration `json:"at"`
	// Duration is how long the fault lasts before the engine heals it
	// (region up, link heal, restart, …). Zero means the fault holds
	// until the scenario ends or Stop is called — the engine always heals
	// everything it injected on the way out.
	Duration time.Duration `json:"duration"`
	Kind     FaultKind     `json:"kind"`
	// Region names the victim for region-down and crash faults.
	Region simnet.Region `json:"region,omitempty"`
	// From/To name the directional link for cut and latency faults.
	From simnet.Region `json:"from,omitempty"`
	To   simnet.Region `json:"to,omitempty"`
	// Factor is the latency-spike multiplier.
	Factor float64 `json:"factor,omitempty"`
	// Rate is the loss-burst drop probability.
	Rate float64 `json:"rate,omitempty"`
}

// Scenario is a named, ordered fault schedule.
type Scenario struct {
	Name   string  `json:"name"`
	Seed   int64   `json:"seed,omitempty"`
	Faults []Fault `json:"faults"`
}

// timelineEvent is one scheduled action on the runner's clock.
type timelineEvent struct {
	at time.Duration // scaled offset from scenario start
	// healIdx names the fault (index into Scenario.Faults); an inject
	// event registers it as outstanding, its heal event consumes it.
	healIdx int
	isHeal  bool
}

// inject dispatches f's injection through the engine.
func (e *Engine) inject(f Fault) error {
	switch f.Kind {
	case FaultRegionDown:
		return e.RegionDown(f.Region)
	case FaultLinkCut:
		return e.CutLink(f.From, f.To)
	case FaultLossBurst:
		return e.SetLoss(f.Rate)
	case FaultLatencySpike:
		return e.SpikeLatency(f.From, f.To, f.Factor)
	case FaultReplicaCrash:
		return e.CrashReplica(f.Region)
	case FaultCoordCrash:
		return e.CrashCoordinator(f.Region)
	}
	return fmt.Errorf("chaos: unknown fault kind %q", f.Kind)
}

// heal dispatches f's recovery through the engine.
func (e *Engine) heal(f Fault) error {
	switch f.Kind {
	case FaultRegionDown:
		return e.RegionUp(f.Region)
	case FaultLinkCut:
		return e.HealLink(f.From, f.To)
	case FaultLossBurst:
		return e.SetLoss(0)
	case FaultLatencySpike:
		return e.ClearLatency(f.From, f.To)
	case FaultReplicaCrash:
		return e.RestartReplica(f.Region)
	case FaultCoordCrash:
		return e.RestartCoordinator(f.Region)
	}
	return fmt.Errorf("chaos: unknown fault kind %q", f.Kind)
}

// Run starts executing sc's timeline on a background goroutine. Injection
// offsets are scaled to emulator time. At most one scenario runs at a time;
// Wait blocks until the timeline finishes and Stop aborts it early. Either
// way, every fault the scenario injected is healed before Run's goroutine
// exits — a scenario never leaves the cluster broken.
func (e *Engine) Run(sc Scenario) error {
	// Validate up front so a typo'd scenario fails loudly instead of
	// panicking mid-run.
	for i, f := range sc.Faults {
		switch f.Kind {
		case FaultRegionDown, FaultReplicaCrash, FaultCoordCrash:
			if err := e.checkRegion(f.Region); err != nil {
				return fmt.Errorf("chaos: fault %d: %w", i, err)
			}
		case FaultLinkCut, FaultLatencySpike:
			if err := e.checkRegion(f.From); err != nil {
				return fmt.Errorf("chaos: fault %d: %w", i, err)
			}
			if err := e.checkRegion(f.To); err != nil {
				return fmt.Errorf("chaos: fault %d: %w", i, err)
			}
		case FaultLossBurst:
			if f.Rate < 0 || f.Rate > 1 {
				return fmt.Errorf("chaos: fault %d: loss rate %v outside [0,1]", i, f.Rate)
			}
		default:
			return fmt.Errorf("chaos: fault %d: unknown kind %q", i, f.Kind)
		}
	}

	// The runner waits through the cluster clock so a virtual-time cluster
	// advances past fault offsets instead of wedging on a wall-clock timer;
	// stop and done are Events for the same reason, and because a Stop fired
	// from inside the virtual world then lands at one deterministic point of
	// its event order.
	clk := e.cfg.Cluster.Clock()

	e.mu.Lock()
	if e.running {
		e.mu.Unlock()
		return fmt.Errorf("chaos: scenario already running")
	}
	e.running = true
	e.stop = clk.NewEvent()
	e.done = clk.NewEvent()
	stop, done := e.stop, e.done
	e.mu.Unlock()

	// Build the scaled timeline: one inject event per fault, plus a heal
	// event for bounded faults. A single runner goroutine fires them in
	// order, so injections never race each other.
	scale := func(d time.Duration) time.Duration { return e.cfg.Cluster.ScaleDuration(d) }
	var events []timelineEvent
	for i := range sc.Faults {
		f := sc.Faults[i]
		events = append(events, timelineEvent{at: scale(f.At), healIdx: i})
		if f.Duration > 0 {
			events = append(events, timelineEvent{at: scale(f.At + f.Duration), healIdx: i, isHeal: true})
		}
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].at < events[b].at })

	if e.cfg.Logf != nil {
		e.cfg.Logf("chaos: scenario %q starting: %d faults", sc.Name, len(sc.Faults))
	}

	clk.Go(func() {
		defer done.Fire()
		defer func() {
			e.mu.Lock()
			e.running = false
			e.mu.Unlock()
		}()

		start := clk.Now()
		outstanding := make(map[int]Fault, len(sc.Faults))

		for _, ev := range events {
			if wait := ev.at - clk.Since(start); wait > 0 && stop.WaitTimeout(wait) || stopped(stop) {
				e.healOutstanding(outstanding)
				return
			}
			f := sc.Faults[ev.healIdx]
			if ev.isHeal {
				delete(outstanding, ev.healIdx)
				if err := e.heal(f); err != nil && e.cfg.Logf != nil {
					e.cfg.Logf("chaos: heal %s: %v", f.Kind, err)
				}
				continue
			}
			if err := e.inject(f); err != nil {
				if e.cfg.Logf != nil {
					e.cfg.Logf("chaos: inject %s: %v", f.Kind, err)
				}
				continue
			}
			outstanding[ev.healIdx] = f
		}
		e.healOutstanding(outstanding)
		if e.cfg.Logf != nil {
			e.cfg.Logf("chaos: scenario %q finished", sc.Name)
		}
	})
	return nil
}

// stopped reports whether stop has fired, without waiting.
func stopped(stop *vclock.Event) bool {
	select {
	case <-stop.Done():
		return true
	default:
		return false
	}
}

// healOutstanding recovers every still-active fault, in injection order.
func (e *Engine) healOutstanding(outstanding map[int]Fault) {
	idxs := make([]int, 0, len(outstanding))
	for i := range outstanding {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		f := outstanding[i]
		if err := e.heal(f); err != nil && e.cfg.Logf != nil {
			e.cfg.Logf("chaos: heal %s: %v", f.Kind, err)
		}
	}
}

// Wait blocks until the running scenario's timeline completes (including
// its final heals). It returns immediately if none is running.
func (e *Engine) Wait() {
	e.mu.Lock()
	done := e.done
	e.mu.Unlock()
	if done != nil {
		done.Wait()
	}
}

// Stop aborts the running scenario. Outstanding faults are healed before
// Stop returns. A no-op when nothing is running.
func (e *Engine) Stop() {
	e.mu.Lock()
	stop, done, running := e.stop, e.done, e.running
	e.mu.Unlock()
	if !running {
		return
	}
	stop.Fire()
	done.Wait()
}

// Running reports whether a scenario timeline is active.
func (e *Engine) Running() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.running
}

// GenConfig parameterizes Generate.
type GenConfig struct {
	// Seed drives every random choice; the same seed over the same region
	// list reproduces the schedule exactly.
	Seed int64
	// Span is the scenario length in unscaled WAN time (default 60s).
	// Faults start inside the first three quarters so their effects and
	// recoveries land inside the span.
	Span time.Duration
	// Extra adds this many random faults beyond the guaranteed core set
	// (default 3).
	Extra int
}

// Generate builds a reproducible random scenario over regionList. The
// schedule always contains at least one partition (region blackout or link
// cut), one replica crash/restart, and one latency spike — the trio the
// soak harness requires — plus cfg.Extra random faults, sorted by At.
func Generate(regionList []simnet.Region, cfg GenConfig) (Scenario, error) {
	if len(regionList) < 2 {
		return Scenario{}, fmt.Errorf("chaos: Generate needs >= 2 regions, got %d", len(regionList))
	}
	if cfg.Span <= 0 {
		cfg.Span = 60 * time.Second
	}
	if cfg.Extra < 0 {
		cfg.Extra = 0
	} else if cfg.Extra == 0 {
		cfg.Extra = 3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	region := func() simnet.Region { return regionList[rng.Intn(len(regionList))] }
	link := func() (simnet.Region, simnet.Region) {
		from := rng.Intn(len(regionList))
		to := rng.Intn(len(regionList) - 1)
		if to >= from {
			to++
		}
		return regionList[from], regionList[to]
	}
	// at draws an offset in the first three quarters of the span; dur
	// draws a bounded hold so the heal lands inside the span too.
	at := func() time.Duration {
		return time.Duration(rng.Int63n(int64(cfg.Span * 3 / 4)))
	}
	dur := func() time.Duration {
		return cfg.Span/20 + time.Duration(rng.Int63n(int64(cfg.Span/5)))
	}

	var faults []Fault
	// Guaranteed core set: partition, crash, latency spike.
	if rng.Intn(2) == 0 {
		faults = append(faults, Fault{At: at(), Duration: dur(), Kind: FaultRegionDown, Region: region()})
	} else {
		from, to := link()
		faults = append(faults, Fault{At: at(), Duration: dur(), Kind: FaultLinkCut, From: from, To: to})
	}
	faults = append(faults, Fault{At: at(), Duration: dur(), Kind: FaultReplicaCrash, Region: region()})
	{
		from, to := link()
		faults = append(faults, Fault{At: at(), Duration: dur(),
			Kind: FaultLatencySpike, From: from, To: to, Factor: 2 + 6*rng.Float64()})
	}
	// Random extras across every kind.
	for i := 0; i < cfg.Extra; i++ {
		f := Fault{At: at(), Duration: dur()}
		switch rng.Intn(6) {
		case 0:
			f.Kind, f.Region = FaultRegionDown, region()
		case 1:
			f.Kind = FaultLinkCut
			f.From, f.To = link()
		case 2:
			f.Kind, f.Rate = FaultLossBurst, 0.05+0.25*rng.Float64()
		case 3:
			f.Kind = FaultLatencySpike
			f.From, f.To = link()
			f.Factor = 2 + 6*rng.Float64()
		case 4:
			f.Kind, f.Region = FaultReplicaCrash, region()
		case 5:
			f.Kind, f.Region = FaultCoordCrash, region()
		}
		faults = append(faults, f)
	}
	sort.SliceStable(faults, func(a, b int) bool { return faults[a].At < faults[b].At })
	return Scenario{
		Name:   fmt.Sprintf("generated-%d", cfg.Seed),
		Seed:   cfg.Seed,
		Faults: faults,
	}, nil
}

// PresetNames lists the scenarios Preset understands.
func PresetNames() []string {
	return []string{"partition", "flaky", "lagspike", "crashloop", "mixed"}
}

// Preset returns a hand-written scenario by name over regionList:
//
//   - partition: one region blacked out, then a directional link cut
//   - flaky: alternating loss bursts
//   - lagspike: latency multipliers on two links
//   - crashloop: replica and coordinator crash/restart cycles
//   - mixed: a little of everything
func Preset(name string, regionList []simnet.Region) (Scenario, error) {
	if len(regionList) < 2 {
		return Scenario{}, fmt.Errorf("chaos: preset needs >= 2 regions, got %d", len(regionList))
	}
	a, b := regionList[0], regionList[1]
	c := regionList[len(regionList)-1]
	s := func(d time.Duration) time.Duration { return d } // readability
	switch name {
	case "partition":
		return Scenario{Name: name, Faults: []Fault{
			{At: s(2 * time.Second), Duration: 10 * time.Second, Kind: FaultRegionDown, Region: a},
			{At: s(16 * time.Second), Duration: 10 * time.Second, Kind: FaultLinkCut, From: b, To: c},
		}}, nil
	case "flaky":
		return Scenario{Name: name, Faults: []Fault{
			{At: s(2 * time.Second), Duration: 6 * time.Second, Kind: FaultLossBurst, Rate: 0.2},
			{At: s(12 * time.Second), Duration: 6 * time.Second, Kind: FaultLossBurst, Rate: 0.35},
			{At: s(22 * time.Second), Duration: 6 * time.Second, Kind: FaultLossBurst, Rate: 0.1},
		}}, nil
	case "lagspike":
		return Scenario{Name: name, Faults: []Fault{
			{At: s(2 * time.Second), Duration: 12 * time.Second, Kind: FaultLatencySpike, From: a, To: b, Factor: 5},
			{At: s(8 * time.Second), Duration: 12 * time.Second, Kind: FaultLatencySpike, From: c, To: a, Factor: 3},
		}}, nil
	case "crashloop":
		return Scenario{Name: name, Faults: []Fault{
			{At: s(2 * time.Second), Duration: 8 * time.Second, Kind: FaultReplicaCrash, Region: b},
			{At: s(14 * time.Second), Duration: 8 * time.Second, Kind: FaultCoordCrash, Region: a},
			{At: s(26 * time.Second), Duration: 8 * time.Second, Kind: FaultReplicaCrash, Region: c},
		}}, nil
	case "mixed":
		return Scenario{Name: name, Faults: []Fault{
			{At: s(2 * time.Second), Duration: 8 * time.Second, Kind: FaultLatencySpike, From: a, To: b, Factor: 4},
			{At: s(6 * time.Second), Duration: 8 * time.Second, Kind: FaultLossBurst, Rate: 0.15},
			{At: s(12 * time.Second), Duration: 8 * time.Second, Kind: FaultRegionDown, Region: c},
			{At: s(24 * time.Second), Duration: 8 * time.Second, Kind: FaultReplicaCrash, Region: b},
			{At: s(36 * time.Second), Duration: 6 * time.Second, Kind: FaultCoordCrash, Region: a},
		}}, nil
	}
	return Scenario{}, fmt.Errorf("chaos: unknown preset %q (have %v)", name, PresetNames())
}
