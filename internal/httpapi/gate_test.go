package httpapi

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"planet/internal/cluster"
	"planet/internal/clustertest"
	planet "planet/internal/core"
	"planet/internal/mdcc"
	"planet/internal/obs"
	"planet/internal/simnet"
)

// promSeries is one parsed exposition line.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// parseExposition is a strict reader of the Prometheus text format as
// /v1/metrics writes it: every line is a comment or `name[{k="v",...}] value`,
// anything else fails the test.
func parseExposition(t *testing.T, text string) []promSeries {
	t.Helper()
	var out []promSeries
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		head, raw, ok := strings.Cut(line, " ")
		if i := strings.LastIndex(line, "} "); i >= 0 {
			head, raw, ok = line[:i+1], line[i+2:], true
		}
		v, err := strconv.ParseFloat(raw, 64)
		if !ok || err != nil {
			t.Fatalf("unparseable exposition line %q", line)
		}
		s := promSeries{name: head, labels: map[string]string{}, value: v}
		if name, rest, labelled := strings.Cut(head, "{"); labelled {
			s.name = name
			for _, pair := range strings.Split(strings.TrimSuffix(rest, "}"), ",") {
				k, q, ok := strings.Cut(pair, "=")
				val, err := strconv.Unquote(q)
				if !ok || err != nil {
					t.Fatalf("bad label %q in line %q", pair, line)
				}
				s.labels[k] = val
			}
		}
		out = append(out, s)
	}
	return out
}

// sumSeries adds up the series of one family whose labels include want.
func sumSeries(series []promSeries, name string, want map[string]string) float64 {
	var total float64
next:
	for _, s := range series {
		if s.name != name {
			continue
		}
		for k, v := range want {
			if s.labels[k] != v {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// trioRegions are the regions of an in-process deployment, sorted as every
// node sorts them.
var trioRegions = []simnet.Region{"eu-west", "us-east", "us-west"}

// gateNode is one node of an in-process deployment: the cluster node and a
// client of its gateway.
type gateNode struct {
	c  *cluster.Cluster
	cl *Client
}

// trio is what three planetd -realnet processes run — per region a cluster
// node over realnet, a traced DB, and its HTTP gateway — in this process.
type trio struct {
	nodes map[simnet.Region]*gateNode
	peers map[simnet.Region]string
	cfg   func(simnet.Region) cluster.NodeConfig
	mode  mdcc.Mode
	// regs is each region's metrics registry, fresh per node built.
	regs map[simnet.Region]*obs.Registry
}

// startGateTrio builds the three nodes from cfg, boots each as planetd does
// (see boot), with DBs that commit in mode, and closes them when the test
// ends.
func startGateTrio(t *testing.T, mode mdcc.Mode, cfg func(simnet.Region) cluster.NodeConfig) *trio {
	t.Helper()
	tr := &trio{nodes: make(map[simnet.Region]*gateNode), cfg: cfg, mode: mode,
		regs: make(map[simnet.Region]*obs.Registry)}
	cs, peers, err := clustertest.StartNodes(t, trioRegions, tr.nodeConfig)
	if err != nil {
		t.Fatal(err)
	}
	tr.peers = peers
	for _, r := range trioRegions {
		tr.boot(t, r, cs[r])
	}
	return tr
}

// nodeConfig is cfg(r) with a fresh registry for r, which counts the lease
// takeovers the node reports, as planetd's does.
func (tr *trio) nodeConfig(r simnet.Region) cluster.NodeConfig {
	nc := tr.cfg(r)
	reg := obs.NewRegistry()
	tr.regs[r] = reg
	nc.OnLeaseEvent = func(ev mdcc.LeaseEvent) {
		if ev.Kind == mdcc.LeaseTakeover {
			reg.Counter("planet_lease_takeovers_total", "Keyspace lease takeovers won.",
				obs.L("keyspace", string(ev.Keyspace))).Inc()
		}
	}
	return nc
}

// boot does for region r's node what planetd does after NewNode: open a
// traced DB, seed the image, replay the WAL over it (RestartReplica), and
// serve the gateway.
func (tr *trio) boot(t *testing.T, r simnet.Region, c *cluster.Cluster) {
	t.Helper()
	db, err := planet.Open(planet.Config{Cluster: c, Mode: tr.mode, Registry: tr.regs[r], Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	c.SeedInt("gate", 0, -1<<40, 1<<40)
	for _, k := range acctKeys {
		c.SeedInt(k, 100, 0, 10_000_000)
	}
	if err := c.RestartReplica(r); err != nil {
		t.Fatal(err)
	}
	sess, err := db.Session(r)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db, sess)
	srv.EnableRealNet(c.RealNet, c.Replica(r))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	tr.nodes[r] = &gateNode{c: c, cl: &Client{Base: ts.URL}}
}

// restart builds region r's node again, closed before, on its address and
// with its config (its DataDir's WAL replays), and boots it.
func (tr *trio) restart(t *testing.T, r simnet.Region) {
	t.Helper()
	nc := tr.nodeConfig(r)
	nc.Region, nc.Peers = r, tr.peers
	c, err := cluster.NewNode(nc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	tr.boot(t, r, c)
}

// acctKeys is the bank the trio seeds, as planetd does: acct-1..acct-8 at
// 100 each.
var acctKeys = []string{"acct-1", "acct-2", "acct-3", "acct-4", "acct-5", "acct-6", "acct-7", "acct-8"}

// TestOneRequestCommitGate is the CI gate on the cost of a live commit: N
// commits through SubmitAndWait on an in-process three-node deployment,
// then — from /v1/metrics alone, parsed strictly — one HTTP request per
// commit at the gateway, and fewer socket writes than frames across the
// fleet (span reports ride along instead of costing their own write). A
// change that reintroduces the second round trip, or a write per frame,
// fails here.
func TestOneRequestCommitGate(t *testing.T) {
	tr := startGateTrio(t, mdcc.ModeFast, func(simnet.Region) cluster.NodeConfig {
		return cluster.NodeConfig{CommitTimeout: 20 * time.Second}
	})
	gw := tr.nodes["us-west"].cl
	add := SubmitRequest{Ops: []Op{{Kind: "add", Key: "gate", Delta: 1}}}
	// Warm-up: the transports dial on first use.
	for i := 0; i < 5; i++ {
		if st, err := gw.SubmitAndWait(add, 10*time.Second); err != nil || !st.Committed {
			t.Fatalf("warm-up commit %d: %+v, %v", i, st, err)
		}
	}
	scrape := func() (requests, commits, frames, writes, reads float64) {
		for r, n := range tr.nodes {
			text, err := n.cl.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			series := parseExposition(t, text)
			for _, name := range []string{"planet_realnet_sent_total", "planet_realnet_writes_total", "planet_realnet_reads_total"} {
				if sumSeries(series, name, nil) == 0 {
					t.Fatalf("%s missing or zero on %s", name, r)
				}
			}
			frames += sumSeries(series, "planet_realnet_sent_total", nil)
			writes += sumSeries(series, "planet_realnet_writes_total", nil)
			reads += sumSeries(series, "planet_realnet_reads_total", nil)
			requests += sumSeries(series, "planet_http_requests_total", map[string]string{"route": "/v1/txn"})
			requests += sumSeries(series, "planet_http_requests_total", map[string]string{"route": "/v1/txn/{id}"})
			commits += sumSeries(series, "planet_mdcc_decisions_total", map[string]string{"outcome": "commit"})
		}
		return
	}

	req0, com0, fr0, wr0, rd0 := scrape()
	const n = 300
	for i := 0; i < n; i++ {
		if st, err := gw.SubmitAndWait(add, 10*time.Second); err != nil || !st.Committed {
			t.Fatalf("commit %d: %+v, %v", i, st, err)
		}
	}
	// Trailing span reports leave within their bound; let them be counted.
	time.Sleep(20 * time.Millisecond)
	req1, com1, fr1, wr1, rd1 := scrape()

	commits := com1 - com0
	if commits != n {
		t.Fatalf("%v commits decided, want %d", commits, n)
	}
	requests, frames, writes, reads := req1-req0, fr1-fr0, wr1-wr0, rd1-rd0
	t.Logf("per commit: %.2f HTTP requests, %.2f frames, %.2f writes, %.2f reads",
		requests/n, frames/n, writes/n, reads/n)
	if requests != n {
		t.Errorf("%v transaction requests for %d commits: a commit must cost exactly one", requests, n)
	}
	if writes >= frames {
		t.Errorf("%v socket writes for %v frames: writes per commit must stay below frames per commit", writes, frames)
	}
	if r, err := gw.Read("gate"); err != nil || r.Int != n+5 {
		t.Errorf("gate = %d (%v), want %d", r.Int, err, n+5)
	}
}
