package multinet

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"syscall"
	"time"

	"planet/internal/httpapi"
	"planet/internal/mdcc"
	"planet/internal/simnet"
)

// Harness API only this package's tests use.

// MasterOf reports which region masters key under this deployment's region
// set (matching what every node computes).
func (n *Network) MasterOf(key string) simnet.Region {
	if n.cfg.MasterRegion != "" {
		return n.cfg.MasterRegion
	}
	return mdcc.MasterFor(key, n.regions)
}

// GrepLog reports whether the node's log contains substr.
func (n *Network) GrepLog(r simnet.Region, substr string) (bool, error) {
	nd, err := n.node(r)
	if err != nil {
		return false, err
	}
	data, err := os.ReadFile(nd.LogPath)
	if err != nil {
		return false, err
	}
	return strings.Contains(string(data), substr), nil
}

// Kill delivers SIGKILL — the process vanishes mid-whatever-it-was-doing,
// with no chance to flush or say goodbye.
func (n *Network) Kill(r simnet.Region) error {
	nd, err := n.node(r)
	if err != nil {
		return err
	}
	p := nd.take()
	if p == nil {
		return fmt.Errorf("multinet: node %s not running", r)
	}
	p.end() // a SIGKILL exit is expected to be non-zero
	return nil
}

// Stop delivers SIGTERM and waits for a graceful exit, returning an error
// if the process exits non-zero or outlives timeout.
func (n *Network) Stop(r simnet.Region, timeout time.Duration) error {
	nd, err := n.node(r)
	if err != nil {
		return err
	}
	p := nd.take()
	if p == nil {
		return fmt.Errorf("multinet: node %s not running", r)
	}
	defer p.end()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("multinet: signal %s: %w", r, err)
	}
	select {
	case <-p.exited:
		if p.err != nil {
			return fmt.Errorf("multinet: node %s graceful exit: %w", r, p.err)
		}
		return nil
	case <-time.After(timeout):
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

// Decisions fetches every transaction verdict the region's replica retains.
func (n *Network) Decisions(r simnet.Region) (map[string]bool, error) {
	return n.Client(r).NetDecisions()
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
