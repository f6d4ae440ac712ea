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

// startGateTrio runs what three planetd -realnet processes run — per region
// a cluster node over realnet, a traced DB, and its HTTP gateway — in this
// process, and returns a client per gateway.
func startGateTrio(t *testing.T) map[simnet.Region]*Client {
	t.Helper()
	regionList := []simnet.Region{"eu-west", "us-east", "us-west"}
	cs, _, err := clustertest.StartNodes(t, regionList, func(simnet.Region) cluster.NodeConfig {
		return cluster.NodeConfig{CommitTimeout: 20 * time.Second}
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make(map[simnet.Region]*Client, len(regionList))
	for _, r := range regionList {
		c := cs[r]
		c.SeedInt("gate", 0, -1<<40, 1<<40)
		db, err := planet.Open(planet.Config{Cluster: c, Registry: obs.NewRegistry(), Trace: true})
		if err != nil {
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
		nodes[r] = &Client{Base: ts.URL}
	}
	return nodes
}

// TestOneRequestCommitGate is the CI gate on the cost of a live commit: N
// commits through SubmitAndWait on an in-process three-node deployment,
// then — from /v1/metrics alone, parsed strictly — one HTTP request per
// commit at the gateway, and fewer socket writes than frames across the
// fleet (span reports ride along instead of costing their own write). A
// change that reintroduces the second round trip, or a write per frame,
// fails here.
func TestOneRequestCommitGate(t *testing.T) {
	nodes := startGateTrio(t)
	gw := nodes["us-west"]
	add := SubmitRequest{Ops: []Op{{Kind: "add", Key: "gate", Delta: 1}}}
	// Warm-up: the transports dial on first use.
	for i := 0; i < 5; i++ {
		if st, err := gw.SubmitAndWait(add, 10*time.Second); err != nil || !st.Committed {
			t.Fatalf("warm-up commit %d: %+v, %v", i, st, err)
		}
	}
	scrape := func() (requests, commits, frames, writes, reads float64) {
		for r, cl := range nodes {
			text, err := cl.Metrics()
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
