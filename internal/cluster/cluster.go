// Package cluster assembles a runnable PLANET deployment out of one node per
// region: the region's MDCC replica, transaction coordinator and write-ahead
// log. New builds every node in one process over a simulated
// WAN; NewNode builds one over TCP, one process per region. Both use the
// same node constructor. It is the composition root shared by the tests,
// the examples, and the benchmark harness.
//
// A cluster built by New runs on one virtual clock (vclock.Virtual): its
// own, unpaced, unless Config.Clock supplies one, such as the paced clock
// planetd serves HTTP clients from. A node built by NewNode runs on the
// real clock.
package cluster

import (
	"fmt"
	"time"

	"planet/internal/mdcc"
	"planet/internal/realnet"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/vclock"
)

// Config parameterizes a cluster.
type Config struct {
	// Topology supplies the regions and their latency matrix.
	// Defaults to the paper's five-datacenter topology.
	Topology regions.Topology
	// TimeScale compresses WAN delays (see simnet.Config). Defaults to
	// DefaultTimeScale.
	TimeScale float64
	// Seed drives all network randomness.
	Seed int64
	// LossRate drops messages uniformly at random, in [0,1).
	LossRate float64
	// CommitTimeout bounds a transaction's in-flight time, expressed in
	// unscaled (WAN) time; the cluster scales it. Defaults to
	// DefaultCommitTimeout.
	CommitTimeout time.Duration
	// MasterRegion, when non-empty, makes one region master for every
	// key; otherwise masters are assigned by key hash across regions.
	MasterRegion simnet.Region
	// EarlyAbort enables optimistic abort propagation at every
	// coordinator: conflict-doomed options abort immediately instead of
	// paying a classic master round-trip first (see
	// mdcc.CoordinatorConfig.EarlyAbort).
	EarlyAbort bool
	// MasterLeases replaces the static master assignment with time-bounded,
	// epoch-fenced leases: mastership of each keyspace is granted by a
	// majority for LeaseTerm at a time, renewed by the holder, and taken
	// over by a survivor when the holder dies and the lease lapses. The
	// static assignment (MasterRegion, or the key-hash split) becomes the
	// default holder of each keyspace.
	MasterLeases bool
	// LeaseTerm is the lease duration in unscaled WAN time (scaled like the
	// other timeouts). Defaults to DefaultLeaseTerm.
	LeaseTerm time.Duration
	// OnLeaseEvent, when non-nil, observes lease transitions (acquired /
	// renewed / takeover / deposed) as seen by each region's replica.
	OnLeaseEvent func(simnet.Region, mdcc.LeaseEvent)
	// PendingTTL evicts orphaned pending options (unscaled time).
	// Defaults to DefaultPendingTTL; negative disables eviction.
	PendingTTL time.Duration
	// WAL enables per-replica write-ahead logs (memory-backed).
	WAL bool
	// VirtualTime is ignored. It is kept only for the frozen benchmark
	// module, which still sets it, and goes with ROADMAP item 9.
	VirtualTime bool
	// Clock overrides the cluster's time source; the caller keeps ownership.
	// Nil gives the cluster a clock of its own: an unpaced vclock.Virtual
	// that Close shuts down. Every region's replica, coordinator, lease
	// tick and delivery timers, and the code driving them, then share its
	// single serialized event order: timeouts and sleeps advance simulated
	// time straight to the next deadline, so a run takes CPU time only and
	// is deterministic for a given Seed. The goroutine that calls New holds
	// that clock's execution slot and may block only through the clock.
	// Callers that serve a client waiting in wall time pass a
	// vclock.NewPaced clock instead.
	Clock vclock.Clock
}

// Defaults used when Config fields are zero.
const (
	DefaultTimeScale     = 0.02
	DefaultCommitTimeout = 5 * time.Second
	DefaultPendingTTL    = 20 * time.Second
	DefaultLeaseTerm     = 8 * time.Second
)

// Cluster is a fully wired deployment. Exactly one of Net (simulated WAN,
// built by New) and RealNet (TCP transport, built by NewNode) is non-nil.
type Cluster struct {
	Net      *simnet.Network
	RealNet  *realnet.Transport
	Topology regions.Topology

	nodes map[simnet.Region]node // every region under New, the local one under NewNode
	spec  spec
	scale float64
	clk   vclock.Clock
	virt  *vclock.Virtual // non-nil when the cluster created its virtual clock

	// Node-mode recovery report (NewNode with a data dir).
	walRecovered int
	walTorn      bool
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Topology.Matrix == nil {
		cfg.Topology = regions.Five()
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = DefaultTimeScale
	}
	s, err := newSpec(cfg, cfg.Topology.Regions)
	if err != nil {
		return nil, err
	}

	clk := cfg.Clock
	var virt *vclock.Virtual
	if clk == nil {
		virt = vclock.NewVirtual()
		clk = virt
	}

	net, err := simnet.New(simnet.Config{
		Latency:   cfg.Topology.Matrix,
		TimeScale: cfg.TimeScale,
		Seed:      cfg.Seed,
		LossRate:  cfg.LossRate,
		Clock:     clk,
	})
	if err != nil {
		if virt != nil {
			virt.Shutdown()
		}
		return nil, fmt.Errorf("cluster: %w", err)
	}

	c := &Cluster{
		Net:      net,
		Topology: cfg.Topology,
		nodes:    make(map[simnet.Region]node, len(s.regions)),
		spec:     s,
		scale:    cfg.TimeScale,
		clk:      clk,
		virt:     virt,
	}
	for _, r := range s.regions {
		var wal *mdcc.WAL
		if cfg.WAL {
			wal = mdcc.NewWAL(nil)
		}
		n, err := newNode(net, r, wal, &c.spec)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes[r] = n
	}
	return c, nil
}

// Regions returns the cluster's regions in topology order.
func (c *Cluster) Regions() []simnet.Region { return c.Topology.Regions }

// TimeScale returns the WAN compression factor.
func (c *Cluster) TimeScale() float64 { return c.scale }

// CommitTimeout returns the effective (already time-scaled) commit budget
// the coordinators run with. The attribution-fed predictor measures learned
// stage costs against it.
func (c *Cluster) CommitTimeout() time.Duration { return c.spec.commitTimeout }

// Clock returns the cluster's time source, shared by every region and by
// the code driving the cluster.
func (c *Cluster) Clock() vclock.Clock { return c.clk }

// Replica returns the region's replica, or nil for an unknown region.
func (c *Cluster) Replica(r simnet.Region) *mdcc.Replica { return c.nodes[r].replica }

// Coordinator returns the region's coordinator, or nil for unknown regions.
func (c *Cluster) Coordinator(r simnet.Region) *mdcc.Coordinator { return c.nodes[r].coord }

// WALOf returns the region's write-ahead log (nil under New without
// Config.WAL, or for an unknown region).
func (c *Cluster) WALOf(r simnet.Region) *mdcc.WAL { return c.nodes[r].wal }

// SeedBytes installs key=value at every replica (setup path). It is written
// once, into the deployment's seed image; each replica builds the key's
// record from there when the protocol first touches it.
func (c *Cluster) SeedBytes(key string, value []byte) {
	c.spec.seeds.SeedBytes(key, value)
}

// SeedInt installs an integer record with integrity bounds at every replica.
func (c *Cluster) SeedInt(key string, value, lo, hi int64) {
	c.spec.seeds.SeedInt(key, value, lo, hi)
}

// SeedBytesRange installs value under keyspace.Key(prefix, i) for every
// 0 ≤ i < n at every replica, in constant time: the seed image keeps the
// range, not its keys. One private copy of value is shared by every key.
func (c *Cluster) SeedBytesRange(prefix string, n int, value []byte) {
	c.spec.seeds.SeedBytesRange(prefix, n, value)
}

// SeedIntRange installs the same integer record with integrity bounds under
// keyspace.Key(prefix, i) for every 0 ≤ i < n at every replica.
func (c *Cluster) SeedIntRange(prefix string, n int, value, lo, hi int64) {
	c.spec.seeds.SeedIntRange(prefix, n, value, lo, hi)
}

// onNode runs fn on region r's node, or reports that r has none.
func (c *Cluster) onNode(r simnet.Region, fn func(node) error) error {
	if n, ok := c.nodes[r]; ok {
		return fn(n)
	}
	return fmt.Errorf("cluster: no node in region %q", r)
}

// CrashReplica simulates a replica process failure in region r: the node
// leaves the network and loses its in-memory state. RestartReplica recovers
// it from the seed image and its WAL.
func (c *Cluster) CrashReplica(r simnet.Region) error {
	return c.onNode(r, func(n node) error { n.replica.Crash(); return nil })
}

// RestartReplica restores region r's crashed replica via WAL replay and
// rejoins it to the network.
func (c *Cluster) RestartReplica(r simnet.Region) error {
	return c.onNode(r, func(n node) error { return n.replica.Restore() })
}

// CrashCoordinator simulates a coordinator process failure in region r:
// every transaction it was coordinating fails with mdcc.ErrCrashed.
func (c *Cluster) CrashCoordinator(r simnet.Region) error {
	return c.onNode(r, func(n node) error { n.coord.Crash(); return nil })
}

// RestartCoordinator rejoins region r's crashed coordinator to the network.
func (c *Cluster) RestartCoordinator(r simnet.Region) error {
	return c.onNode(r, func(n node) error { n.coord.Restart(); return nil })
}

// ScaleDuration converts an unscaled WAN duration into emulator time.
func (c *Cluster) ScaleDuration(d time.Duration) time.Duration {
	return time.Duration(float64(d) * c.scale)
}

// Close shuts the network down, stops every replica's lease tick and closes
// every node's WAL, then stops the virtual scheduler if the cluster owns one
// (the network before the clock, so Quiesce calls racing Close observe the
// closed network and return instead of parking on a dead clock).
func (c *Cluster) Close() {
	if c.Net != nil {
		c.Net.Close()
	}
	if c.RealNet != nil {
		c.RealNet.Close()
	}
	for _, n := range c.nodes {
		n.replica.Close()
		if n.wal != nil {
			n.wal.Close() // callers that need the log durable Sync it first
		}
	}
	if c.virt != nil {
		c.virt.Shutdown()
	}
}

// Quiesce waits for in-flight messages to drain (bounded by timeout). On a
// realnet node only local deliveries can be awaited; the wire has no global
// view.
func (c *Cluster) Quiesce(timeout time.Duration) bool {
	if c.Net != nil {
		return c.Net.Quiesce(timeout)
	}
	if c.RealNet != nil {
		return c.RealNet.Quiesce(timeout)
	}
	return true
}
