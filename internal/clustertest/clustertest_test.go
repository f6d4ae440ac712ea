package clustertest

import (
	"net"
	"testing"

	"planet/internal/cluster"
	"planet/internal/simnet"
)

// TestStartNodesRetriesTakenPort: a port another process takes between
// its reservation and the node's bind fails that bind, and StartNodes
// closes what it built and starts the whole set on fresh ports. The
// squatter takes the first reserved port (no node built yet), or the last
// (the nodes before it built and closed).
func TestStartNodesRetriesTakenPort(t *testing.T) {
	rs := []simnet.Region{"us-east", "us-west"}
	for _, squat := range []int{0, len(rs) - 1} {
		t.Run(string(rs[squat]), func(t *testing.T) {
			var taken string
			tries := 0
			reserve := func(t testing.TB, rs []simnet.Region) map[simnet.Region]string {
				peers := reservePorts(t, rs)
				if tries++; tries == 1 {
					l, err := net.Listen("tcp", peers[rs[squat]])
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { l.Close() })
					taken = l.Addr().String()
				}
				return peers
			}
			nodes, peers, err := startNodes(t, rs, func(simnet.Region) cluster.NodeConfig {
				return cluster.NodeConfig{}
			}, reserve)
			if err != nil {
				t.Fatal(err)
			}
			if tries != 2 {
				t.Errorf("%d port sets tried, want 2", tries)
			}
			for _, r := range rs {
				if peers[r] == taken {
					t.Errorf("%s runs on the taken port %s", r, taken)
				}
				if nodes[r] == nil || nodes[r].Replica(r) == nil {
					t.Errorf("%s has no node", r)
				}
			}
		})
	}
}
