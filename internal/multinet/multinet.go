// Package multinet boots and torments multi-process PLANET clusters: N
// planetd processes (separate OS processes, WALs on disk, real TCP between
// them) that the crash-restart tests drive through what only a real
// process can suffer — kill -9, SIGTERM, a torn tail in a real file.
//
// Where package chaos injects faults into the simulated WAN's knobs, this
// harness has no privileged view at all: every observation goes through
// each node's HTTP gateway, and every fault is something an operator (or
// an unlucky datacenter) could do to a live process. It is the sonic-style
// end of the testing spectrum — fewer schedules than simnet explores, but
// each one real. Checks that need real sockets but no separate process run
// in-process (httpapi's node tests), and scenario and failover checks run
// seeded on the virtual clock.
package multinet

import (
	"errors"
	"fmt"
	"net"
	"net/http"
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
	proc *proc // the running launch; nil once killed or stopped
}

// proc is one launch of a node's process.
type proc struct {
	cmd    *exec.Cmd
	logf   *os.File
	exited chan struct{} // closed once the process has exited and been reaped
	err    error         // its exit status, set before exited closes
}

// Network is a running multi-process deployment.
type Network struct {
	cfg     Config
	regions []simnet.Region // sorted, as the nodes see them
	nodes   map[simnet.Region]*Node
}

// bindTries bounds how many port sets Start tries.
const bindTries = 5

// Start builds the deployment layout, launches one planetd per region, and
// waits for every gateway to come up. A port another process took between
// its reservation and a node's bind fails that node's start: the fleet is
// closed, its files removed, and the whole fleet starts again on fresh
// ports, up to bindTries times.
func Start(cfg Config) (*Network, error) {
	return startWith(cfg, freePorts)
}

// startWith is Start over the ports reserve picks.
func startWith(cfg Config, reserve func(n int) ([]int, error)) (*Network, error) {
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
	for try := 1; ; try++ {
		ports, err := reserve(2 * len(regions))
		if err != nil {
			return nil, err
		}
		n := layout(cfg, regions, ports)
		if err = n.boot(); err == nil {
			return n, nil
		}
		n.Close()
		for _, nd := range n.nodes {
			os.RemoveAll(nd.DataDir)
			os.Remove(nd.LogPath)
		}
		if !errors.Is(err, syscall.EADDRINUSE) || try == bindTries {
			return nil, err
		}
	}
}

// layout places each region's node on two of ports, its data dir and log
// under cfg.BaseDir, and builds its planetd arguments.
func layout(cfg Config, regions []simnet.Region, ports []int) *Network {
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
	}
	return n
}

// boot launches every node and waits for every gateway.
func (n *Network) boot() error {
	for _, r := range n.regions {
		if err := n.launch(n.nodes[r]); err != nil {
			return err
		}
	}
	for _, r := range n.regions {
		if err := n.WaitReady(r); err != nil {
			return err
		}
	}
	return nil
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them. Another process can take one before the node binds it; Start
// then starts again on fresh ports.
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
	if nd.proc != nil {
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
	p := &proc{cmd: cmd, logf: logf, exited: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	nd.proc = p
	return nil
}

// take removes nd's running launch, if any, for the caller to end.
func (nd *Node) take() *proc {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	p := nd.proc
	nd.proc = nil
	return p
}

// end kills p's process unless it has exited, waits for the exit and
// closes its log.
func (p *proc) end() {
	p.cmd.Process.Kill()
	<-p.exited
	p.logf.Close()
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
	// A bounded request: until the node binds, another process may hold
	// its port and never answer.
	cl := n.Client(r)
	cl.HTTP = &http.Client{Timeout: 250 * time.Millisecond}
	deadline := time.Now().Add(n.cfg.ReadyTimeout)
	for {
		if resp, err := cl.Read("demo"); err == nil && resp.Found {
			return nil
		}
		nd.mu.Lock()
		p := nd.proc
		nd.mu.Unlock()
		if p != nil {
			select {
			case <-p.exited:
				err := fmt.Errorf("multinet: node %s exited before its gateway came up: %v (log: %s)", r, p.err, nd.LogPath)
				if log, _ := os.ReadFile(nd.LogPath); strings.Contains(string(log), "address already in use") {
					err = fmt.Errorf("%w: %w", err, syscall.EADDRINUSE)
				}
				return err
			default:
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("multinet: node %s (%s) not ready within %v (log: %s)",
				r, nd.HTTPAddr, n.cfg.ReadyTimeout, nd.LogPath)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// WaitPeerState polls region on's gateway until it reports peer about in
// the wanted state ("up" or "down").
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

// Close kills every running node. Data dirs and logs are left for the
// caller's cleanup (tests use t.TempDir).
func (n *Network) Close() {
	for _, nd := range n.nodes {
		if p := nd.take(); p != nil {
			p.end()
		}
	}
}
