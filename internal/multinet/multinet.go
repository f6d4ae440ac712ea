// Package multinet boots and torments multi-process PLANET clusters: N
// planetd processes (separate OS processes, WALs on disk, real TCP between
// them) that the crash-restart tests drive through OS-level fault
// injection — kill -9, SIGSTOP/SIGCONT, SIGTERM, dropped listeners, and
// link cuts via the transport's admin API.
//
// Where package chaos injects faults into the simulated WAN's knobs, this
// harness has no privileged view at all: every observation goes through
// each node's HTTP gateway, and every fault is something an operator (or
// an unlucky datacenter) could do to a live process. It is the sonic-style
// end of the testing spectrum — fewer schedules than simnet explores, but
// each one real.
package multinet

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"planet/internal/httpapi"
	"planet/internal/simnet"
)

// DefaultRegions is the three-datacenter deployment the tests use.
var DefaultRegions = []simnet.Region{"us-west", "us-east", "eu-west"}

// Config parameterizes Start.
type Config struct {
	// Binary is the path to a planetd binary. Required.
	Binary string
	// BaseDir holds per-node data dirs and log files. Required (tests pass
	// t.TempDir()).
	BaseDir string
	// Regions lists the deployment's regions. Defaults to DefaultRegions.
	Regions []simnet.Region
	// CommitTimeout is passed as -committimeout (0 keeps the default).
	// Small values bound how long a transaction caught mid-fault stalls.
	CommitTimeout time.Duration
	// NetDelay is passed as -netdelay: an artificial inbound delivery
	// delay that widens protocol windows loopback TCP makes vanishingly
	// small (the WAL crash-point test aims kills into that window).
	NetDelay time.Duration
	// MasterRegion pins every key's master (-masterregion); empty keeps
	// hash mastership.
	MasterRegion simnet.Region
	// Mode is passed as -mode ("fast" or "classic"); empty keeps the
	// default. Classic routes every option through the key's master, which
	// the trace tests use to get master-side spans from a separate process.
	Mode string
	// Drain is passed as -drain (0 keeps the default).
	Drain time.Duration
	// Leases passes -leases: epoch-fenced master leases with automatic
	// failover replace the static master assignment.
	Leases bool
	// LeaseTerm is passed as -leaseterm (0 keeps the default). Small values
	// shrink the failover window the tests wait out.
	LeaseTerm time.Duration
	// ReadyTimeout bounds waiting for a node's gateway to come up.
	// Defaults to 15s.
	ReadyTimeout time.Duration
}

// Node is one planetd process of the deployment.
type Node struct {
	Region   simnet.Region
	HTTPAddr string // gateway, 127.0.0.1:port
	NetAddr  string // transport, 127.0.0.1:port
	DataDir  string
	LogPath  string

	args []string
	mu   sync.Mutex
	cmd  *exec.Cmd
	logf *os.File
}

// Network is a running multi-process deployment.
type Network struct {
	cfg     Config
	regions []simnet.Region // sorted, as the nodes see them
	nodes   map[simnet.Region]*Node
}

// Start builds the deployment layout, launches one planetd per region, and
// waits for every gateway to come up.
func Start(cfg Config) (*Network, error) {
	if cfg.Binary == "" || cfg.BaseDir == "" {
		return nil, fmt.Errorf("multinet: Binary and BaseDir are required")
	}
	if len(cfg.Regions) == 0 {
		cfg.Regions = DefaultRegions
	}
	if cfg.ReadyTimeout == 0 {
		cfg.ReadyTimeout = 15 * time.Second
	}
	regions := append([]simnet.Region(nil), cfg.Regions...)
	sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })

	ports, err := freePorts(2 * len(regions))
	if err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, regions: regions, nodes: make(map[simnet.Region]*Node, len(regions))}
	peerSpec := make([]string, 0, len(regions))
	for i, r := range regions {
		n.nodes[r] = &Node{
			Region:   r,
			HTTPAddr: fmt.Sprintf("127.0.0.1:%d", ports[2*i]),
			NetAddr:  fmt.Sprintf("127.0.0.1:%d", ports[2*i+1]),
			DataDir:  filepath.Join(cfg.BaseDir, string(r)),
			LogPath:  filepath.Join(cfg.BaseDir, string(r)+".log"),
		}
		peerSpec = append(peerSpec, fmt.Sprintf("%s=%s", r, n.nodes[r].NetAddr))
	}
	peers := strings.Join(peerSpec, ",")
	for _, r := range regions {
		nd := n.nodes[r]
		nd.args = []string{
			"-realnet",
			"-region", string(r),
			"-listen", nd.NetAddr,
			"-peers", peers,
			"-addr", nd.HTTPAddr,
			"-datadir", nd.DataDir,
		}
		if cfg.CommitTimeout > 0 {
			nd.args = append(nd.args, "-committimeout", cfg.CommitTimeout.String())
		}
		if cfg.NetDelay > 0 {
			nd.args = append(nd.args, "-netdelay", cfg.NetDelay.String())
		}
		if cfg.MasterRegion != "" {
			nd.args = append(nd.args, "-masterregion", string(cfg.MasterRegion))
		}
		if cfg.Mode != "" {
			nd.args = append(nd.args, "-mode", cfg.Mode)
		}
		if cfg.Drain > 0 {
			nd.args = append(nd.args, "-drain", cfg.Drain.String())
		}
		if cfg.Leases {
			nd.args = append(nd.args, "-leases")
			if cfg.LeaseTerm > 0 {
				nd.args = append(nd.args, "-leaseterm", cfg.LeaseTerm.String())
			}
		}
	}
	for _, r := range regions {
		if err := n.launch(n.nodes[r]); err != nil {
			n.Close()
			return nil, err
		}
	}
	for _, r := range regions {
		if err := n.WaitReady(r); err != nil {
			n.Close()
			return nil, err
		}
	}
	return n, nil
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them. The window between release and the node's bind is real but tiny,
// and loopback tests tolerate it.
func freePorts(n int) ([]int, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range lns {
			l.Close()
		}
	}()
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("multinet: reserve port: %w", err)
		}
		lns = append(lns, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// launch starts (or restarts) a node's process, appending to its log.
func (n *Network) launch(nd *Node) error {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.cmd != nil {
		return fmt.Errorf("multinet: node %s already running", nd.Region)
	}
	logf, err := os.OpenFile(nd.LogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("multinet: node log: %w", err)
	}
	cmd := exec.Command(n.cfg.Binary, nd.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("multinet: start %s: %w", nd.Region, err)
	}
	nd.cmd, nd.logf = cmd, logf
	return nil
}

// node returns the region's node or an error.
func (n *Network) node(r simnet.Region) (*Node, error) {
	nd := n.nodes[r]
	if nd == nil {
		return nil, fmt.Errorf("multinet: unknown region %q", r)
	}
	return nd, nil
}

// Regions returns the deployment's regions, sorted (the order that defines
// quorums and mastership on every node).
func (n *Network) Regions() []simnet.Region {
	return append([]simnet.Region(nil), n.regions...)
}

// Client returns an HTTP client against the region's gateway.
func (n *Network) Client(r simnet.Region) *httpapi.Client {
	nd := n.nodes[r]
	if nd == nil {
		return &httpapi.Client{}
	}
	return &httpapi.Client{Base: "http://" + nd.HTTPAddr}
}

// WaitReady polls the region's gateway until it serves reads.
func (n *Network) WaitReady(r simnet.Region) error {
	nd, err := n.node(r)
	if err != nil {
		return err
	}
	cl := n.Client(r)
	deadline := time.Now().Add(n.cfg.ReadyTimeout)
	for {
		if resp, err := cl.Read("demo"); err == nil && resp.Found {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("multinet: node %s (%s) not ready within %v (log: %s)",
				r, nd.HTTPAddr, n.cfg.ReadyTimeout, nd.LogPath)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// Kill delivers SIGKILL — the process vanishes mid-whatever-it-was-doing,
// with no chance to flush or say goodbye.
func (n *Network) Kill(r simnet.Region) error {
	nd, err := n.node(r)
	if err != nil {
		return err
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.cmd == nil {
		return fmt.Errorf("multinet: node %s not running", r)
	}
	nd.cmd.Process.Kill()
	nd.cmd.Wait() // reap; a SIGKILL exit is expected to be non-zero
	nd.logf.Close()
	nd.cmd, nd.logf = nil, nil
	return nil
}

// Stop delivers SIGTERM and waits for a graceful exit, returning an error
// if the process exits non-zero or outlives timeout.
func (n *Network) Stop(r simnet.Region, timeout time.Duration) error {
	nd, err := n.node(r)
	if err != nil {
		return err
	}
	nd.mu.Lock()
	cmd := nd.cmd
	nd.mu.Unlock()
	if cmd == nil {
		return fmt.Errorf("multinet: node %s not running", r)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("multinet: signal %s: %w", r, err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		nd.mu.Lock()
		nd.logf.Close()
		nd.cmd, nd.logf = nil, nil
		nd.mu.Unlock()
		if err != nil {
			return fmt.Errorf("multinet: node %s graceful exit: %w", r, err)
		}
		return nil
	case <-time.After(timeout):
		cmd.Process.Kill()
		<-done
		nd.mu.Lock()
		nd.logf.Close()
		nd.cmd, nd.logf = nil, nil
		nd.mu.Unlock()
		return fmt.Errorf("multinet: node %s did not exit within %v of SIGTERM", r, timeout)
	}
}

// Restart relaunches a killed or stopped node with its original arguments
// (same ports, same data dir — the WAL replays) and waits for readiness.
func (n *Network) Restart(r simnet.Region) error {
	nd, err := n.node(r)
	if err != nil {
		return err
	}
	if err := n.launch(nd); err != nil {
		return err
	}
	return n.WaitReady(r)
}

// Pause delivers SIGSTOP: the process freezes with its sockets open — the
// gray failure where a peer is unreachable but its TCP endpoints linger.
func (n *Network) Pause(r simnet.Region) error { return n.signal(r, syscall.SIGSTOP) }

// Resume delivers SIGCONT after a Pause.
func (n *Network) Resume(r simnet.Region) error { return n.signal(r, syscall.SIGCONT) }

func (n *Network) signal(r simnet.Region, sig syscall.Signal) error {
	nd, err := n.node(r)
	if err != nil {
		return err
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.cmd == nil {
		return fmt.Errorf("multinet: node %s not running", r)
	}
	return nd.cmd.Process.Signal(sig)
}

// CutLink severs the link between two regions in both directions (each
// side drops traffic to and from the other). Both processes must be up.
func (n *Network) CutLink(a, b simnet.Region) error {
	if err := n.Client(a).NetCut(string(b), true); err != nil {
		return err
	}
	return n.Client(b).NetCut(string(a), true)
}

// HealLink restores a CutLink.
func (n *Network) HealLink(a, b simnet.Region) error {
	if err := n.Client(a).NetCut(string(b), false); err != nil {
		return err
	}
	return n.Client(b).NetCut(string(a), false)
}

// WaitPeerState polls region on's gateway until it reports peer about in
// the wanted state ("up", "suspect", "down").
func (n *Network) WaitPeerState(on, about simnet.Region, want string, timeout time.Duration) error {
	cl := n.Client(on)
	deadline := time.Now().Add(timeout)
	last := "?"
	for {
		if resp, err := cl.NetPeers(); err == nil {
			if st, ok := resp.Peers[string(about)]; ok {
				last = st
				if st == want {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("multinet: %s sees peer %s as %q, wanted %q within %v",
				on, about, last, want, timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// WaitLeaseHolder polls region on's gateway until its replica's lease view
// reports keyspace held by want (lease deployments only).
func (n *Network) WaitLeaseHolder(on, keyspace, want simnet.Region, timeout time.Duration) error {
	cl := n.Client(on)
	deadline := time.Now().Add(timeout)
	last := "?"
	for {
		if resp, err := cl.NetLease(); err == nil {
			for _, li := range resp.Leases {
				if li.Keyspace == string(keyspace) {
					last = fmt.Sprintf("%s (epoch %d)", li.Holder, li.Epoch)
					if li.Holder == string(want) {
						return nil
					}
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("multinet: %s sees lease %s held by %s, wanted %s within %v",
				on, keyspace, last, want, timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// Decisions fetches every transaction verdict the region's replica retains.
func (n *Network) Decisions(r simnet.Region) (map[string]bool, error) {
	return n.Client(r).NetDecisions()
}

// Close kills every running node. Data dirs and logs are left for the
// caller's cleanup (tests use t.TempDir).
func (n *Network) Close() {
	for _, nd := range n.nodes {
		nd.mu.Lock()
		if nd.cmd != nil {
			nd.cmd.Process.Kill()
			nd.cmd.Wait()
			nd.logf.Close()
			nd.cmd, nd.logf = nil, nil
		}
		nd.mu.Unlock()
	}
}

// Session wraps a gateway client with the workload vocabulary the tests
// speak: bounded-account transfers and integer reads.
type Session struct {
	C *httpapi.Client
	// Timeout bounds each SubmitAndWait.
	Timeout time.Duration
}

// Session returns a workload session against the region's gateway.
func (n *Network) Session(r simnet.Region, timeout time.Duration) *Session {
	return &Session{C: n.Client(r), Timeout: timeout}
}

// Add submits a single-key delta and reports whether it committed. An
// ErrWaitTimeout (transaction unresolved within Timeout) is reported as
// (false, nil, id): for a fault-injection workload that is an expected
// outcome, not a harness failure.
func (s *Session) Add(key string, delta int64) (committed bool, id string, err error) {
	return s.submit(httpapi.SubmitRequest{
		Ops: []httpapi.Op{{Kind: "add", Key: key, Delta: delta}},
	})
}

// Transfer moves amt from one bounded account to another atomically.
func (s *Session) Transfer(from, to string, amt int64) (committed bool, id string, err error) {
	return s.submit(httpapi.SubmitRequest{
		Ops: []httpapi.Op{
			{Kind: "add", Key: from, Delta: -amt},
			{Kind: "add", Key: to, Delta: amt},
		},
	})
}

func (s *Session) submit(req httpapi.SubmitRequest) (bool, string, error) {
	st, err := s.C.SubmitAndWait(req, s.Timeout)
	if err != nil {
		if errors.Is(err, httpapi.ErrWaitTimeout) {
			return false, st.Txn, nil
		}
		return false, "", err
	}
	return st.Committed, st.Txn, nil
}

// ReadInt reads a key's committed integer at the gateway's local replica.
func (s *Session) ReadInt(key string) (int64, error) {
	resp, err := s.C.Read(key)
	if err != nil {
		return 0, err
	}
	if !resp.Found {
		return 0, fmt.Errorf("multinet: key %q not found", key)
	}
	return resp.Int, nil
}
