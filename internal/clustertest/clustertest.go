// Package clustertest starts in-process deployments of cluster nodes, each
// over its own loopback TCP port, for tests.
package clustertest

import (
	"errors"
	"net"
	"syscall"
	"testing"

	"planet/internal/cluster"
	"planet/internal/simnet"
)

// bindTries bounds how many port sets StartNodes tries.
const bindTries = 5

// StartNodes starts a node of every region of rs over loopback TCP, with
// cfg's settings for that region, and closes them when the test ends. It
// returns the nodes and the deployment's peer map. A port another process
// took between its reservation and the node's bind fails the bind: the
// nodes built so far are closed and the whole set starts again on fresh
// ports, up to bindTries times.
func StartNodes(t testing.TB, rs []simnet.Region, cfg func(simnet.Region) cluster.NodeConfig) (map[simnet.Region]*cluster.Cluster, map[simnet.Region]string, error) {
	t.Helper()
	return startNodes(t, rs, cfg, reservePorts)
}

// startNodes is StartNodes over the ports reserve picks.
func startNodes(t testing.TB, rs []simnet.Region, cfg func(simnet.Region) cluster.NodeConfig,
	reserve func(testing.TB, []simnet.Region) map[simnet.Region]string) (map[simnet.Region]*cluster.Cluster, map[simnet.Region]string, error) {
	t.Helper()
	for try := 1; ; try++ {
		peers := reserve(t, rs)
		nodes := make(map[simnet.Region]*cluster.Cluster, len(rs))
		var err error
		for _, r := range rs {
			nc := cfg(r)
			nc.Region, nc.Peers = r, peers
			if nodes[r], err = cluster.NewNode(nc); err != nil {
				delete(nodes, r)
				break
			}
		}
		if err == nil {
			for _, c := range nodes {
				t.Cleanup(c.Close)
			}
			return nodes, peers, nil
		}
		for _, c := range nodes {
			c.Close()
		}
		if !errors.Is(err, syscall.EADDRINUSE) || try == bindTries {
			return nil, nil, err
		}
		t.Logf("port taken before bind, starting again on fresh ports: %v", err)
	}
}

// reservePorts maps each region to a free loopback address. Every
// listener stays open until all are picked, so no two regions share a
// port; all are closed on return, for the nodes to bind.
func reservePorts(t testing.TB, rs []simnet.Region) map[simnet.Region]string {
	t.Helper()
	peers := make(map[simnet.Region]string, len(rs))
	for _, r := range rs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		peers[r] = l.Addr().String()
	}
	return peers
}
