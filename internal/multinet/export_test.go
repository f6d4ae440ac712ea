package multinet

import (
	"os"
	"strings"

	"planet/internal/mdcc"
	"planet/internal/simnet"
)

// Harness helpers only this package's tests use.

// MasterOf reports which region masters key under this deployment's region
// set (matching what every node computes).
func (n *Network) MasterOf(key string) simnet.Region {
	if n.cfg.MasterRegion != "" {
		return n.cfg.MasterRegion
	}
	return mdcc.MasterFor(key, n.regions)
}

// Running reports whether the region's process is currently launched.
func (n *Network) Running(r simnet.Region) bool {
	nd := n.nodes[r]
	if nd == nil {
		return false
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.cmd != nil
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
