package cluster_test

import (
	"errors"
	"net"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/mdcc"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/txn"
)

// pairRegions are the regions of the two-node deployments below, sorted as
// NewNode sorts them.
var pairRegions = []simnet.Region{"us-east", "us-west"}

// freePeers maps each region to a free loopback address.
func freePeers(t *testing.T, rs []simnet.Region) map[simnet.Region]string {
	t.Helper()
	peers := make(map[simnet.Region]string, len(rs))
	for _, r := range rs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[r] = l.Addr().String()
		l.Close()
	}
	return peers
}

// startNode starts region r's node of the deployment peers over loopback
// TCP, with cfg's other settings, and closes it when the test ends.
func startNode(t *testing.T, peers map[simnet.Region]string, r simnet.Region, cfg cluster.NodeConfig) (*cluster.Cluster, error) {
	t.Helper()
	cfg.Region, cfg.Peers = r, peers
	c, err := cluster.NewNode(cfg)
	if err == nil {
		t.Cleanup(c.Close)
	}
	return c, err
}

// waitDecided polls rep until it has recorded id's decision.
func waitDecided(rep *mdcc.Replica, id txn.ID, timeout time.Duration) bool {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if _, ok := rep.Decisions()[id]; ok {
			return true
		}
	}
	return false
}

// constructor is one of the two ways to build a deployment. build makes one
// from cfg's deployment-wide settings and returns a cluster holding the
// nodes of the regions in nodes; regions is the deployment's region list.
type constructor struct {
	name           string
	regions, nodes []simnet.Region
	defaultWAL     bool // whether a node logs without Config.WAL
	build          func(t *testing.T, cfg cluster.Config) (*cluster.Cluster, error)
}

// constructors are New over simnet, and a NewNode pair over loopback TCP whose
// first node is returned.
var constructors = []constructor{
	{
		name: "New", regions: regions.Five().Regions, nodes: regions.Five().Regions,
		build: func(t *testing.T, cfg cluster.Config) (*cluster.Cluster, error) {
			c, err := cluster.New(cfg)
			if err == nil {
				t.Cleanup(c.Close)
			}
			return c, err
		},
	},
	{
		name: "NewNode", regions: pairRegions, nodes: pairRegions[:1], defaultWAL: true,
		build: func(t *testing.T, cfg cluster.Config) (*cluster.Cluster, error) {
			peers := freePeers(t, pairRegions)
			var first *cluster.Cluster
			for _, r := range pairRegions {
				c, err := startNode(t, peers, r, cluster.NodeConfig{
					CommitTimeout: cfg.CommitTimeout,
					PendingTTL:    cfg.PendingTTL,
					MasterRegion:  cfg.MasterRegion,
					MasterLeases:  cfg.MasterLeases,
					LeaseTerm:     cfg.LeaseTerm,
				})
				if err != nil {
					return nil, err
				}
				if first == nil {
					first = c
				}
			}
			return first, nil
		},
	},
}

func TestDefaults(t *testing.T) {
	for _, b := range constructors {
		t.Run(b.name, func(t *testing.T) {
			c, err := b.build(t, cluster.Config{TimeScale: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(c.Regions(), b.regions) {
				t.Errorf("regions=%v, want %v", c.Regions(), b.regions)
			}
			for _, r := range b.nodes {
				if c.Replica(r) == nil || c.Coordinator(r) == nil {
					t.Errorf("region %s missing nodes", r)
				}
				if (c.WALOf(r) != nil) != b.defaultWAL {
					t.Errorf("region %s: WAL present=%v, want %v", r, c.WALOf(r) != nil, b.defaultWAL)
				}
			}
			if c.Replica("nowhere") != nil || c.Coordinator("nowhere") != nil || c.WALOf("nowhere") != nil {
				t.Error("unknown region returned nodes")
			}
			if err := c.CrashReplica("nowhere"); err == nil {
				t.Error("crash of an unknown region accepted")
			}
			if got, want := c.CommitTimeout(), c.ScaleDuration(cluster.DefaultCommitTimeout); got != want {
				t.Errorf("CommitTimeout=%v, want %v", got, want)
			}
			if got := c.LeaseTerm(); got != 0 {
				t.Errorf("LeaseTerm=%v without MasterLeases, want 0", got)
			}

			c, err = b.build(t, cluster.Config{TimeScale: 0.01, MasterLeases: true})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := c.LeaseTerm(), c.ScaleDuration(cluster.DefaultLeaseTerm); got != want {
				t.Errorf("LeaseTerm=%v with MasterLeases, want %v", got, want)
			}
		})
	}
}

func TestMasterRegionValidation(t *testing.T) {
	for _, b := range constructors {
		t.Run(b.name, func(t *testing.T) {
			_, err := b.build(t, cluster.Config{MasterRegion: "atlantis", TimeScale: 0.01})
			if err == nil || !strings.Contains(err.Error(), `master region "atlantis"`) {
				t.Errorf("unknown master region: err=%v", err)
			}
			if _, err := b.build(t, cluster.Config{MasterRegion: b.regions[1], TimeScale: 0.01}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestNegativePendingTTLDisables(t *testing.T) {
	for _, b := range constructors {
		t.Run(b.name, func(t *testing.T) {
			if _, err := b.build(t, cluster.Config{PendingTTL: -1, TimeScale: 0.01}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCloseClosesWAL: Close releases the node's on-disk WAL, so a Sync after
// it finds the file closed.
func TestCloseClosesWAL(t *testing.T) {
	r := pairRegions[0]
	c, err := startNode(t, freePeers(t, pairRegions), r, cluster.NodeConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.WALOf(r).Sync(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Sync after Close = %v, want os.ErrClosed", err)
	}
}

// TestNodeRestartRecoversWAL is the kill/restart drill in one process: a
// NewNode pair commits n Adds, one node is closed and rebuilt on the same
// DataDir, and once seeded and restarted it holds exactly what its peer
// holds.
func TestNodeRestartRecoversWAL(t *testing.T) {
	const n = 10
	peers := freePeers(t, pairRegions)
	gw, victim := pairRegions[0], pairRegions[1]
	dirs := map[simnet.Region]string{gw: t.TempDir(), victim: t.TempDir()}
	start := func(r simnet.Region) *cluster.Cluster {
		c, err := startNode(t, peers, r, cluster.NodeConfig{DataDir: dirs[r], CommitTimeout: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		c.SeedInt("k", 0, 0, 1<<20)
		return c
	}
	gwNode, victimNode := start(gw), start(victim)
	db, err := planet.Open(planet.Config{Cluster: gwNode})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := db.Session(gw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tx := sess.Begin()
		tx.Add("k", 1)
		h, err := tx.Commit(planet.CommitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if oc := h.Wait(); !oc.Committed {
			t.Fatalf("add %d did not commit: %+v", i, oc)
		}
		for _, rep := range []*mdcc.Replica{gwNode.Replica(gw), victimNode.Replica(victim)} {
			if !waitDecided(rep, h.ID(), 10*time.Second) {
				t.Fatalf("add %d: a replica never saw the decision", i)
			}
		}
	}

	victimNode.Close()
	victimNode = start(victim)
	if err := victimNode.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	if got := victimNode.WALRecovered(); got != n {
		t.Errorf("WALRecovered=%d, want %d", got, n)
	}
	got, want := victimNode.Replica(victim).Snapshot(), gwNode.Replica(gw).Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restarted replica holds %v, its peer %v", got, want)
	}
}

func TestSeedReachesAllReplicas(t *testing.T) {
	c, err := cluster.New(cluster.Config{Topology: regions.Three(), TimeScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SeedBytes("b", []byte("x"))
	c.SeedInt("i", 7, 0, 10)
	for _, r := range c.Regions() {
		if v, ok := c.Replica(r).ReadLocal("b"); !ok || string(v.Bytes) != "x" {
			t.Errorf("%s: bytes seed missing", r)
		}
		if v, ok := c.Replica(r).ReadLocal("i"); !ok || v.Int != 7 {
			t.Errorf("%s: int seed missing", r)
		}
	}
}

func TestScaleHelpers(t *testing.T) {
	c, err := cluster.New(cluster.Config{TimeScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.ScaleDuration(time.Second); got != 20*time.Millisecond {
		t.Errorf("ScaleDuration=%v", got)
	}
	if got := c.UnscaleDuration(20 * time.Millisecond); got != time.Second {
		t.Errorf("UnscaleDuration=%v", got)
	}
	if c.TimeScale() != 0.02 {
		t.Errorf("TimeScale=%v", c.TimeScale())
	}
}

func TestWALEnabled(t *testing.T) {
	c, err := cluster.New(cluster.Config{WAL: true, TimeScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, r := range c.Regions() {
		if c.WALOf(r) == nil {
			t.Errorf("%s: WAL missing", r)
		}
	}
}

func TestQuiesceEmpty(t *testing.T) {
	c, err := cluster.New(cluster.Config{TimeScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Quiesce(time.Second) {
		t.Error("idle network failed to quiesce")
	}
}

func TestLossRatePropagates(t *testing.T) {
	if _, err := cluster.New(cluster.Config{LossRate: 1.5, TimeScale: 0.01}); err == nil {
		t.Error("invalid loss rate accepted")
	}
}

func TestCustomTopology(t *testing.T) {
	topo, err := regions.Build([]simnet.Region{regions.Tokyo, regions.Sydney}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{Topology: topo, TimeScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.Regions()) != 2 {
		t.Errorf("regions=%v", c.Regions())
	}
}
