// Package chaos is a deterministic fault-injection engine for PLANET
// clusters. It turns the simulated WAN's failure knobs — region blackouts,
// directional link cuts, loss bursts, latency spikes, node crashes with
// WAL-replay recovery — into first-class, observable fault events: every
// injection lands in the metrics registry and the deployment's fault log
// (which traces of the transactions in flight at that instant show), and is
// recorded in a queryable history.
//
// Faults can be injected one at a time (the Engine's injector methods,
// exposed over the HTTP API) or scheduled as a seeded Scenario whose
// timeline replays identically for the same seed (see scenario.go).
package chaos

import (
	"fmt"
	"sync"
	"time"

	"planet/internal/cluster"
	"planet/internal/obs"
	"planet/internal/simnet"
	"planet/internal/vclock"
)

// FaultKind names a fault class, used in history entries and metric labels.
type FaultKind string

// The fault classes the engine can inject.
const (
	FaultRegionDown   FaultKind = "region-down"
	FaultLinkCut      FaultKind = "link-cut"
	FaultLossBurst    FaultKind = "loss-burst"
	FaultLatencySpike FaultKind = "latency-spike"
	FaultReplicaCrash FaultKind = "replica-crash"
	FaultCoordCrash   FaultKind = "coord-crash"
)

// Config parameterizes New.
type Config struct {
	// Cluster is the deployment under attack. Required.
	Cluster *cluster.Cluster
	// Registry, when non-nil, counts injections and heals per fault kind
	// (planet_chaos_faults_total / planet_chaos_heals_total).
	Registry *obs.Registry
	// Faults, when non-nil, logs each injection and heal once, on the
	// cluster clock; every trace whose transaction was in flight at that
	// instant shows it, so a slow trace shows exactly which fault it
	// overlapped.
	Faults *obs.FaultLog
	// Logf, when non-nil, logs every injection and heal (e.g. log.Printf).
	Logf func(format string, args ...any)
}

// Injection is one history entry: a fault injected or healed.
type Injection struct {
	At     time.Time `json:"at"`
	Kind   FaultKind `json:"kind"`
	Detail string    `json:"detail"`
	// Heal marks recovery actions (region up, link healed, restart).
	Heal bool `json:"heal"`
}

// Engine injects faults into one cluster. Injector methods are safe for
// concurrent use; at most one scenario runs at a time.
type Engine struct {
	cfg Config

	mu      sync.Mutex
	history []Injection
	faultC  map[FaultKind]*obs.Counter
	healC   map[FaultKind]*obs.Counter

	// Scenario run state (guarded by mu; the runner goroutine owns the
	// timeline between Run and Wait).
	running bool
	stop    *vclock.Event
	done    *vclock.Event
}

// New builds an engine over cfg.Cluster.
func New(cfg Config) (*Engine, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("chaos: Config.Cluster is required")
	}
	if cfg.Cluster.Net == nil {
		// The engine's fault surface is the simulated WAN's knobs. A
		// realnet deployment injects faults at the OS level instead
		// (SIGKILL and SIGTERM, see internal/multinet) and through the
		// transport's /v1/net routes (link cuts, listener drops).
		return nil, fmt.Errorf("chaos: cluster has no simnet network; realnet deployments inject faults at the OS level")
	}
	return &Engine{
		cfg:    cfg,
		faultC: make(map[FaultKind]*obs.Counter),
		healC:  make(map[FaultKind]*obs.Counter),
	}, nil
}

// Cluster returns the deployment under attack.
func (e *Engine) Cluster() *cluster.Cluster { return e.cfg.Cluster }

// record logs one injection into history, metrics, the fault log, and the
// log, stamped on the cluster clock (the one scenario timelines run on).
func (e *Engine) record(kind FaultKind, heal bool, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	entry := Injection{At: e.cfg.Cluster.Clock().Now(), Kind: kind, Detail: detail, Heal: heal}

	e.mu.Lock()
	e.history = append(e.history, entry)
	ctr := e.counterLocked(kind, heal)
	e.mu.Unlock()

	if ctr != nil {
		ctr.Inc()
	}
	note := detail
	if heal {
		note = "heal: " + detail
	}
	e.cfg.Faults.Record(entry.At, "", note)
	if e.cfg.Logf != nil {
		verb := "inject"
		if heal {
			verb = "heal"
		}
		e.cfg.Logf("chaos: %s %s: %s", verb, kind, detail)
	}
}

// counterLocked lazily resolves the registry counter for kind. Caller
// holds e.mu.
func (e *Engine) counterLocked(kind FaultKind, heal bool) *obs.Counter {
	if e.cfg.Registry == nil {
		return nil
	}
	cache, name, help := e.faultC, "planet_chaos_faults_total",
		"Faults injected by the chaos engine, by kind."
	if heal {
		cache, name, help = e.healC, "planet_chaos_heals_total",
			"Fault recoveries performed by the chaos engine, by kind."
	}
	ctr := cache[kind]
	if ctr == nil {
		ctr = e.cfg.Registry.Counter(name, help, obs.L("kind", string(kind)))
		cache[kind] = ctr
	}
	return ctr
}

// Injected returns a copy of the injection history, oldest first.
func (e *Engine) Injected() []Injection {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Injection(nil), e.history...)
}

// checkRegion validates r against the cluster topology.
func (e *Engine) checkRegion(r simnet.Region) error {
	for _, known := range e.cfg.Cluster.Regions() {
		if known == r {
			return nil
		}
	}
	return fmt.Errorf("chaos: unknown region %q", r)
}

// RegionDown blackholes every message to and from region r.
func (e *Engine) RegionDown(r simnet.Region) error {
	if err := e.checkRegion(r); err != nil {
		return err
	}
	e.cfg.Cluster.Net.SetRegionDown(r, true)
	e.record(FaultRegionDown, false, "region %s blackholed", r)
	return nil
}

// RegionUp lifts a RegionDown blackout.
func (e *Engine) RegionUp(r simnet.Region) error {
	if err := e.checkRegion(r); err != nil {
		return err
	}
	e.cfg.Cluster.Net.SetRegionDown(r, false)
	e.record(FaultRegionDown, true, "region %s restored", r)
	return nil
}

// CutLink severs the directional link from → to.
func (e *Engine) CutLink(from, to simnet.Region) error {
	if err := e.checkRegion(from); err != nil {
		return err
	}
	if err := e.checkRegion(to); err != nil {
		return err
	}
	e.cfg.Cluster.Net.SetLinkCut(from, to, true)
	e.record(FaultLinkCut, false, "link %s->%s cut", from, to)
	return nil
}

// HealLink restores the directional link from → to.
func (e *Engine) HealLink(from, to simnet.Region) error {
	if err := e.checkRegion(from); err != nil {
		return err
	}
	if err := e.checkRegion(to); err != nil {
		return err
	}
	e.cfg.Cluster.Net.SetLinkCut(from, to, false)
	e.record(FaultLinkCut, true, "link %s->%s healed", from, to)
	return nil
}

// SetLoss sets the network-wide uniform loss rate (a loss burst while
// elevated; 0 heals).
func (e *Engine) SetLoss(rate float64) error {
	if rate < 0 || rate > 1 {
		return fmt.Errorf("chaos: loss rate %v outside [0,1]", rate)
	}
	e.cfg.Cluster.Net.SetLossRate(rate)
	if rate == 0 {
		e.record(FaultLossBurst, true, "loss rate cleared")
	} else {
		e.record(FaultLossBurst, false, "loss rate %.2f", rate)
	}
	return nil
}

// SpikeLatency multiplies the sampled delay on the directional link
// from → to by factor (> 1 slows it down).
func (e *Engine) SpikeLatency(from, to simnet.Region, factor float64) error {
	if err := e.checkRegion(from); err != nil {
		return err
	}
	if err := e.checkRegion(to); err != nil {
		return err
	}
	if factor <= 0 {
		return fmt.Errorf("chaos: latency factor %v must be positive", factor)
	}
	e.cfg.Cluster.Net.SetLinkDelayFactor(from, to, factor)
	e.record(FaultLatencySpike, false, "link %s->%s latency x%.1f", from, to, factor)
	return nil
}

// ClearLatency removes a latency spike from the directional link from → to.
func (e *Engine) ClearLatency(from, to simnet.Region) error {
	if err := e.checkRegion(from); err != nil {
		return err
	}
	if err := e.checkRegion(to); err != nil {
		return err
	}
	e.cfg.Cluster.Net.SetLinkDelayFactor(from, to, 1)
	e.record(FaultLatencySpike, true, "link %s->%s latency restored", from, to)
	return nil
}

// CrashReplica kills region r's replica process: it leaves the network and
// loses its in-memory state.
func (e *Engine) CrashReplica(r simnet.Region) error {
	if err := e.cfg.Cluster.CrashReplica(r); err != nil {
		return err
	}
	e.record(FaultReplicaCrash, false, "replica %s crashed", r)
	return nil
}

// RestartReplica recovers region r's replica from the seed image and its WAL.
func (e *Engine) RestartReplica(r simnet.Region) error {
	if err := e.cfg.Cluster.RestartReplica(r); err != nil {
		return err
	}
	e.record(FaultReplicaCrash, true, "replica %s restarted (WAL replay)", r)
	return nil
}

// CrashCoordinator kills region r's coordinator: every transaction it was
// coordinating aborts with mdcc.ErrCrashed.
func (e *Engine) CrashCoordinator(r simnet.Region) error {
	if err := e.cfg.Cluster.CrashCoordinator(r); err != nil {
		return err
	}
	e.record(FaultCoordCrash, false, "coordinator %s crashed", r)
	return nil
}

// RestartCoordinator rejoins region r's coordinator to the network.
func (e *Engine) RestartCoordinator(r simnet.Region) error {
	if err := e.cfg.Cluster.RestartCoordinator(r); err != nil {
		return err
	}
	e.record(FaultCoordCrash, true, "coordinator %s restarted", r)
	return nil
}
