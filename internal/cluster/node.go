package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"planet/internal/mdcc"
	"planet/internal/realnet"
	"planet/internal/regions"
	"planet/internal/simnet"
)

// NodeConfig parameterizes one process of a multi-process deployment: the
// local region's replica and coordinator over a TCP transport, with the WAL
// on disk. Every region of the deployment runs one such node (planetd
// -realnet); together they form the same logical cluster New builds
// in-process.
type NodeConfig struct {
	// Region is the local region. Required, and must appear in Peers.
	Region simnet.Region
	// Peers maps EVERY region of the deployment — including this one — to
	// its transport address. All nodes must agree on this map: the sorted
	// key set defines the region list, and with it quorum sizes and key
	// mastership.
	Peers map[simnet.Region]string
	// Listen overrides the address to bind (e.g. "127.0.0.1:0" in tests);
	// empty uses Peers[Region].
	Listen string
	// DataDir, when non-empty, stores the write-ahead log on disk
	// (wal-<region>.jsonl) and recovers it on startup. Empty keeps the WAL
	// in memory — crash durability off, tests only.
	DataDir string
	// CommitTimeout, PendingTTL, MasterRegion, MasterLeases and LeaseTerm
	// mean what they mean in Config, with the same defaults, in real time:
	// node mode runs unscaled.
	CommitTimeout time.Duration
	PendingTTL    time.Duration
	MasterRegion  simnet.Region
	MasterLeases  bool
	LeaseTerm     time.Duration
	// OnLeaseEvent, when non-nil, observes local lease transitions.
	OnLeaseEvent func(mdcc.LeaseEvent)
	// InboundDelay artificially delays every delivery (tests widening
	// protocol windows that loopback TCP makes vanishingly small).
	InboundDelay time.Duration
	// Logf receives transport diagnostics (optional).
	Logf func(format string, args ...any)
}

// replicaName and coordName are the per-region endpoint names.
const (
	replicaName = "replica"
	coordName   = "coord"
)

// spec is what every node of one deployment shares: the region list, the
// mastership rule, the effective (already time-scaled) timeouts and the seed
// image every replica starts from.
type spec struct {
	regions       []simnet.Region
	replicaAddrs  []simnet.Addr
	master        simnet.Region // "" for key-hash mastership
	commitTimeout time.Duration
	pendingTTL    time.Duration // 0 disables eviction
	earlyAbort    bool
	seeds         *mdcc.SeedImage

	leases       bool
	leaseTerm    time.Duration // 0 without leases
	onLeaseEvent func(simnet.Region, mdcc.LeaseEvent)
}

// newSpec fills cfg's zero timeouts with the defaults, checks its master
// region against regionList, and scales the timeouts by cfg.TimeScale.
func newSpec(cfg Config, regionList []simnet.Region) (spec, error) {
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
	if cfg.MasterRegion != "" && !slices.Contains(regionList, cfg.MasterRegion) {
		return spec{}, fmt.Errorf("cluster: master region %q not in topology", cfg.MasterRegion)
	}
	scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) * cfg.TimeScale) }
	s := spec{
		regions:       regionList,
		replicaAddrs:  make([]simnet.Addr, len(regionList)),
		master:        cfg.MasterRegion,
		commitTimeout: scale(cfg.CommitTimeout),
		pendingTTL:    scale(cfg.PendingTTL),
		earlyAbort:    cfg.EarlyAbort,
		onLeaseEvent:  cfg.OnLeaseEvent,
		leases:        cfg.MasterLeases,
		seeds:         new(mdcc.SeedImage),
	}
	for i, r := range regionList {
		s.replicaAddrs[i] = simnet.Addr{Region: r, Name: replicaName}
	}
	if s.leases {
		s.leaseTerm = scale(cfg.LeaseTerm)
	}
	return s, nil
}

// keyspaceOf names key's keyspace after the region that masters it
// statically: the master region for every key, or the key's hash across the
// regions.
func (s *spec) keyspaceOf(key string) simnet.Region {
	if s.master != "" {
		return s.master
	}
	return mdcc.MasterFor(key, s.regions)
}

// masterFor routes key to its static master's replica.
func (s *spec) masterFor(key string) simnet.Addr {
	return simnet.Addr{Region: s.keyspaceOf(key), Name: replicaName}
}

// keyspaces lists the lease keyspaces: the master region's alone, or one
// per region under hash mastership.
func (s *spec) keyspaces() []simnet.Region {
	if s.master != "" {
		return []simnet.Region{s.master}
	}
	return slices.Clone(s.regions)
}

// node is one region's share of a deployment.
type node struct {
	replica *mdcc.Replica
	coord   *mdcc.Coordinator
	wal     *mdcc.WAL // nil when the region logs nothing
}

// newNode registers region's coordinator on net, then its replica, with
// leases when s has them: its lease views are the coordinator's inputs.
func newNode(net mdcc.Transport, region simnet.Region, wal *mdcc.WAL, s *spec) (node, error) {
	coord, err := mdcc.NewCoordinator(mdcc.CoordinatorConfig{
		Net:           net,
		Addr:          simnet.Addr{Region: region, Name: coordName},
		Replicas:      s.replicaAddrs,
		MasterFor:     s.masterFor,
		CommitTimeout: s.commitTimeout,
		EarlyAbort:    s.earlyAbort,
	})
	if err != nil {
		return node{}, err
	}
	var leases *mdcc.LeaseConfig
	if s.leases {
		leases = &mdcc.LeaseConfig{
			Term:       s.leaseTerm,
			KeyspaceOf: s.keyspaceOf,
			Keyspaces:  s.keyspaces(),
			OnView:     coord.LeaseView,
		}
		if s.onLeaseEvent != nil {
			leases.OnEvent = func(ev mdcc.LeaseEvent) { s.onLeaseEvent(region, ev) }
		}
	}
	rep := mdcc.NewReplica(mdcc.ReplicaConfig{
		Net:        net,
		Addr:       simnet.Addr{Region: region, Name: replicaName},
		Peers:      s.replicaAddrs,
		PendingTTL: s.pendingTTL,
		WAL:        wal,
		Seeds:      s.seeds,
		Leases:     leases,
	})
	return node{replica: rep, coord: coord, wal: wal}, nil
}

// NewNode builds and starts one deployment node: a realnet transport bound
// to the local address, and the local region's node over it, with the WAL
// recovered from disk.
//
// The returned Cluster exposes the node through the same API the simnet
// composition does, holding only the local region's node; Net is nil and
// RealNet set.
func NewNode(cfg NodeConfig) (*Cluster, error) {
	if cfg.Region == "" {
		return nil, fmt.Errorf("cluster: NodeConfig.Region is required")
	}
	if _, ok := cfg.Peers[cfg.Region]; !ok {
		return nil, fmt.Errorf("cluster: local region %q missing from Peers", cfg.Region)
	}
	if len(cfg.Peers) < 2 {
		return nil, fmt.Errorf("cluster: a deployment needs at least 2 regions, got %d", len(cfg.Peers))
	}

	// The region list — and with it FastQuorum, ClassicQuorum, and
	// MasterFor — must be identical on every node: derive it from the
	// sorted peer map keys.
	regionList := make([]simnet.Region, 0, len(cfg.Peers))
	for r := range cfg.Peers {
		regionList = append(regionList, r)
	}
	slices.Sort(regionList)
	var onLeaseEvent func(simnet.Region, mdcc.LeaseEvent)
	if cfg.OnLeaseEvent != nil {
		onLeaseEvent = func(_ simnet.Region, ev mdcc.LeaseEvent) { cfg.OnLeaseEvent(ev) }
	}
	// Node mode runs unscaled: every timeout is real time.
	s, err := newSpec(Config{
		TimeScale:     1,
		CommitTimeout: cfg.CommitTimeout,
		PendingTTL:    cfg.PendingTTL,
		MasterRegion:  cfg.MasterRegion,
		MasterLeases:  cfg.MasterLeases,
		LeaseTerm:     cfg.LeaseTerm,
		OnLeaseEvent:  onLeaseEvent,
	}, regionList)
	if err != nil {
		return nil, err
	}

	remote := make(map[simnet.Region]string, len(cfg.Peers)-1)
	for r, addr := range cfg.Peers {
		if r != cfg.Region {
			remote[r] = addr
		}
	}
	listen := cfg.Listen
	if listen == "" {
		listen = cfg.Peers[cfg.Region]
	}
	rn, err := realnet.New(realnet.Config{
		Listen:       listen,
		Peers:        remote,
		Codec:        mdcc.WireCodec{},
		InboundDelay: cfg.InboundDelay,
		Logf:         cfg.Logf,
	})
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		RealNet:  rn,
		Topology: regions.Topology{Regions: regionList},
		nodes:    make(map[simnet.Region]node, 1),
		spec:     s,
		scale:    1,
		clk:      rn.Clock(),
	}

	wal := mdcc.NewWAL(nil)
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			rn.Close()
			return nil, fmt.Errorf("cluster: data dir: %w", err)
		}
		path := filepath.Join(cfg.DataDir, fmt.Sprintf("wal-%s.jsonl", cfg.Region))
		if wal, c.walRecovered, c.walTorn, err = mdcc.OpenWALFile(path); err != nil {
			rn.Close()
			return nil, err
		}
	}
	n, err := newNode(rn, cfg.Region, wal, &c.spec)
	if err != nil {
		rn.Close()
		wal.Close()
		return nil, err
	}
	c.nodes[cfg.Region] = n
	return c, nil
}

// WALRecovered reports how many decision entries the node recovered from
// its on-disk WAL at startup (node mode; 0 otherwise). Callers seed the
// image, then RestartReplica replays these over it.
func (c *Cluster) WALRecovered() int { return c.walRecovered }

// WALTorn reports whether the recovered WAL ended in a torn record that was
// truncated away (the signature of a crash mid-append).
func (c *Cluster) WALTorn() bool { return c.walTorn }
