// Package cluster assembles a runnable PLANET deployment: a simulated WAN
// over a region topology, one MDCC replica per region, and one transaction
// coordinator per region. It is the composition root shared by the tests,
// the examples, and the benchmark harness.
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
	// VirtualTime runs the cluster on one discrete-event virtual clock
	// (vclock.Virtual): every region's replica, coordinator, lease manager
	// and delivery timers, and the harness driving them, share its single
	// serialized event order. Timeouts and sleeps advance simulated time
	// straight to the next deadline instead of waiting in real time, so
	// experiments run at CPU speed and are deterministic for a given Seed.
	// The clock is owned by the cluster; Close shuts it down. Server binaries
	// (planetd) keep the default real clock.
	VirtualTime bool
	// Clock overrides the time source outright (tests). Takes precedence
	// over VirtualTime; the caller keeps ownership.
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

	replicas map[simnet.Region]*mdcc.Replica
	coords   map[simnet.Region]*mdcc.Coordinator
	wals     map[simnet.Region]*mdcc.WAL
	scale    float64
	timeout  time.Duration // effective (scaled) commit timeout
	clk      vclock.Clock
	virt     *vclock.Virtual // non-nil when the cluster created its virtual clock

	leaseMgrs []*leaseManager
	leaseTerm time.Duration // effective (scaled) lease term, 0 without leases

	// Node-mode recovery report (NewNode with a data dir).
	walRecovered int
	walTorn      bool
}

// replicaName and coordName are the per-region node names.
const (
	replicaName = "replica"
	coordName   = "coord"
)

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Topology.Matrix == nil {
		cfg.Topology = regions.Five()
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = DefaultTimeScale
	}
	if cfg.CommitTimeout == 0 {
		cfg.CommitTimeout = DefaultCommitTimeout
	}
	switch {
	case cfg.PendingTTL == 0:
		cfg.PendingTTL = DefaultPendingTTL
	case cfg.PendingTTL < 0:
		cfg.PendingTTL = 0
	}
	if cfg.LeaseTerm == 0 {
		cfg.LeaseTerm = DefaultLeaseTerm
	}

	clk := cfg.Clock
	var virt *vclock.Virtual
	if clk == nil && cfg.VirtualTime {
		virt = vclock.NewVirtual()
		clk = virt
	}
	clk = vclock.Default(clk)
	stopClk := func() {
		if virt != nil {
			virt.Shutdown()
		}
	}

	net, err := simnet.New(simnet.Config{
		Latency:   cfg.Topology.Matrix,
		TimeScale: cfg.TimeScale,
		Seed:      cfg.Seed,
		LossRate:  cfg.LossRate,
		Clock:     clk,
	})
	if err != nil {
		stopClk()
		return nil, fmt.Errorf("cluster: %w", err)
	}

	regionList := cfg.Topology.Regions
	if cfg.MasterRegion != "" {
		found := false
		for _, r := range regionList {
			if r == cfg.MasterRegion {
				found = true
				break
			}
		}
		if !found {
			stopClk()
			return nil, fmt.Errorf("cluster: master region %q not in topology", cfg.MasterRegion)
		}
	}

	replicaAddrs := make([]simnet.Addr, len(regionList))
	for i, r := range regionList {
		replicaAddrs[i] = simnet.Addr{Region: r, Name: replicaName}
	}

	masterFor := func(key string) simnet.Addr {
		if cfg.MasterRegion != "" {
			return simnet.Addr{Region: cfg.MasterRegion, Name: replicaName}
		}
		return simnet.Addr{Region: mdcc.MasterFor(key, regionList), Name: replicaName}
	}

	c := &Cluster{
		Net:      net,
		Topology: cfg.Topology,
		replicas: make(map[simnet.Region]*mdcc.Replica, len(regionList)),
		coords:   make(map[simnet.Region]*mdcc.Coordinator, len(regionList)),
		wals:     make(map[simnet.Region]*mdcc.WAL, len(regionList)),
		scale:    cfg.TimeScale,
		timeout:  time.Duration(float64(cfg.CommitTimeout) * cfg.TimeScale),
		clk:      clk,
		virt:     virt,
	}

	var keyspaces []simnet.Region
	var keyspaceOf func(string) simnet.Region
	if cfg.MasterLeases {
		c.leaseTerm = time.Duration(float64(cfg.LeaseTerm) * cfg.TimeScale)
		keyspaces = keyspacesFor(cfg.MasterRegion, regionList)
		keyspaceOf = keyspaceOfFunc(cfg.MasterRegion, regionList)
	}

	for i, r := range regionList {
		var wal *mdcc.WAL
		if cfg.WAL {
			wal = mdcc.NewWAL(nil)
			c.wals[r] = wal
		}
		c.replicas[r] = mdcc.NewReplica(mdcc.ReplicaConfig{
			Net:        net,
			Addr:       replicaAddrs[i],
			Peers:      replicaAddrs,
			PendingTTL: time.Duration(float64(cfg.PendingTTL) * cfg.TimeScale),
			WAL:        wal,
		})
		mfor := masterFor
		if cfg.MasterLeases {
			region := r
			c.replicas[r].EnableLeases(mdcc.LeaseConfig{
				Term:       c.leaseTerm,
				Keyspaces:  keyspaces,
				KeyspaceOf: keyspaceOf,
				OnEvent: func(ev mdcc.LeaseEvent) {
					if cfg.OnLeaseEvent != nil {
						cfg.OnLeaseEvent(region, ev)
					}
				},
			})
			mfor = leaseMasterFor(c.replicas[r], keyspaceOf)
		}
		coord, err := mdcc.NewCoordinator(mdcc.CoordinatorConfig{
			Net:           net,
			Addr:          simnet.Addr{Region: r, Name: coordName},
			Replicas:      replicaAddrs,
			MasterFor:     mfor,
			CommitTimeout: time.Duration(float64(cfg.CommitTimeout) * cfg.TimeScale),
			EarlyAbort:    cfg.EarlyAbort,
		})
		if err != nil {
			return nil, err
		}
		c.coords[r] = coord
	}
	if cfg.MasterLeases {
		ranked := rankedRegions(regionList)
		for _, r := range regionList {
			c.leaseMgrs = append(c.leaseMgrs,
				newLeaseManager(c.replicas[r], clk, c.leaseTerm, keyspaces, ranked, r))
		}
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
func (c *Cluster) CommitTimeout() time.Duration { return c.timeout }

// Clock returns the cluster's time source, shared by every region and by
// the code driving the cluster.
func (c *Cluster) Clock() vclock.Clock { return c.clk }

// LeaseTerm returns the effective (already time-scaled) lease term, or zero
// when master leases are disabled.
func (c *Cluster) LeaseTerm() time.Duration { return c.leaseTerm }

// Replica returns the region's replica, or nil for an unknown region.
func (c *Cluster) Replica(r simnet.Region) *mdcc.Replica { return c.replicas[r] }

// Coordinator returns the region's coordinator, or nil for unknown regions.
func (c *Cluster) Coordinator(r simnet.Region) *mdcc.Coordinator { return c.coords[r] }

// WALOf returns the region's write-ahead log (nil unless Config.WAL).
func (c *Cluster) WALOf(r simnet.Region) *mdcc.WAL { return c.wals[r] }

// SeedBytes installs key=value at every replica (setup path).
func (c *Cluster) SeedBytes(key string, value []byte) {
	for _, rep := range c.replicas {
		rep.SeedBytes(key, value)
	}
}

// SeedInt installs an integer record with integrity bounds at every replica.
func (c *Cluster) SeedInt(key string, value, lo, hi int64) {
	for _, rep := range c.replicas {
		rep.SeedInt(key, value, lo, hi)
	}
}

// SeedBytesAll installs key=value for every key at every replica in one
// lock acquisition per replica. A single private copy of value is shared
// across all records and replicas; committed slices are never written in
// place, so the sharing is invisible to readers.
func (c *Cluster) SeedBytesAll(keys []string, value []byte) {
	v := append([]byte(nil), value...)
	for _, rep := range c.replicas {
		rep.SeedBytesAll(keys, v)
	}
}

// SeedIntAll installs the same integer record with integrity bounds under
// every key at every replica (bulk form of SeedInt).
func (c *Cluster) SeedIntAll(keys []string, value, lo, hi int64) {
	for _, rep := range c.replicas {
		rep.SeedIntAll(keys, value, lo, hi)
	}
}

// CrashReplica simulates a replica process failure in region r: the node
// leaves the network and loses its in-memory state. RestartReplica recovers
// it from its seeded baseline and WAL.
func (c *Cluster) CrashReplica(r simnet.Region) error {
	rep := c.replicas[r]
	if rep == nil {
		return fmt.Errorf("cluster: no replica in region %q", r)
	}
	rep.Crash()
	return nil
}

// RestartReplica restores region r's crashed replica via WAL replay and
// rejoins it to the network.
func (c *Cluster) RestartReplica(r simnet.Region) error {
	rep := c.replicas[r]
	if rep == nil {
		return fmt.Errorf("cluster: no replica in region %q", r)
	}
	return rep.Restore()
}

// CrashCoordinator simulates a coordinator process failure in region r:
// every transaction it was coordinating fails with mdcc.ErrCrashed.
func (c *Cluster) CrashCoordinator(r simnet.Region) error {
	coord := c.coords[r]
	if coord == nil {
		return fmt.Errorf("cluster: no coordinator in region %q", r)
	}
	coord.Crash()
	return nil
}

// RestartCoordinator rejoins region r's crashed coordinator to the network.
func (c *Cluster) RestartCoordinator(r simnet.Region) error {
	coord := c.coords[r]
	if coord == nil {
		return fmt.Errorf("cluster: no coordinator in region %q", r)
	}
	coord.Restart()
	return nil
}

// ScaleDuration converts an unscaled WAN duration into emulator time.
func (c *Cluster) ScaleDuration(d time.Duration) time.Duration {
	return time.Duration(float64(d) * c.scale)
}

// UnscaleDuration converts a measured emulator duration back to WAN time.
func (c *Cluster) UnscaleDuration(d time.Duration) time.Duration {
	return time.Duration(float64(d) / c.scale)
}

// Close shuts the network down, then stops the virtual scheduler if the
// cluster owns one (in that order, so Quiesce calls racing Close observe
// the closed network and return instead of parking on a dead clock).
func (c *Cluster) Close() {
	for _, m := range c.leaseMgrs {
		m.Stop()
	}
	if c.Net != nil {
		c.Net.Close()
	}
	if c.RealNet != nil {
		c.RealNet.Close()
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
