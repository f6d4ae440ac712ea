package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/regions"
	"planet/internal/vclock"
)

// newGateway stands up a five-region cluster with an HTTP gateway in
// California and returns a client against it.
func newGateway(t *testing.T, pcfg planet.Config) (*Client, *Server, *planet.DB) {
	t.Helper()
	return newGatewayAt(t, pcfg, 0.01)
}

// newGatewayAt is newGateway at a chosen WAN time scale: 0.01 commits in a
// millisecond or two, 1.0 takes a real cross-continent round trip. The
// cluster runs on a paced clock, as planetd's does: HTTP waits are bounded
// in wall time, so virtual time has to follow it. Once set up, the test
// goroutine is an outsider like the handlers (see inWorld).
func newGatewayAt(t *testing.T, pcfg planet.Config, timeScale float64) (*Client, *Server, *planet.DB) {
	t.Helper()
	clk := vclock.NewPaced()
	c, err := cluster.New(cluster.Config{TimeScale: timeScale, Seed: 21,
		CommitTimeout: 60 * time.Second, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		clk.Shutdown()
	})
	pcfg.Cluster = c
	db, err := planet.Open(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := db.Session(regions.California)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db, sess)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	clk.WorkDone() // set up: hand the constructor's slot back
	return &Client{Base: ts.URL}, srv, db
}

// inWorld runs f, which waits through the cluster clock, from the test
// goroutine: entering the paced clock through its outsider pin, as a
// handler does.
func inWorld(db *planet.DB, f func()) {
	clk := db.Cluster().Clock()
	clk.AddWork(1)
	defer clk.WorkDone()
	f()
}

// quiesce waits, inside the world, for the network to drain.
func quiesce(db *planet.DB) {
	inWorld(db, func() { db.Cluster().Quiesce(5 * time.Second) })
}

// sleep waits d on the paced cluster clock: at least d of wall time.
func sleep(db *planet.DB, d time.Duration) {
	inWorld(db, func() { db.Cluster().Clock().Sleep(d) })
}

func TestReadEndpoint(t *testing.T) {
	cl, _, db := newGateway(t, planet.Config{})
	db.Cluster().SeedBytes("k", []byte("hello"))
	db.Cluster().SeedInt("n", 42, 0, 100)

	r, err := cl.Read("k")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found || string(r.Bytes) != "hello" {
		t.Errorf("read %+v", r)
	}

	ri, err := cl.Read("n")
	if err != nil {
		t.Fatal(err)
	}
	if !ri.Found || ri.Int != 42 {
		t.Errorf("int read %+v", ri)
	}

	missing, err := cl.Read("ghost")
	if err != nil {
		t.Fatal(err)
	}
	if missing.Found {
		t.Error("missing key reported found")
	}
}

func TestSubmitAndWaitCommit(t *testing.T) {
	cl, _, db := newGateway(t, planet.Config{})
	db.Cluster().SeedInt("stock", 10, 0, 100)

	st, err := cl.SubmitAndWait(SubmitRequest{
		Ops:         []Op{{Kind: "add", Key: "stock", Delta: -3}},
		SpeculateAt: 0.9,
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || !st.Committed {
		t.Fatalf("status %+v", st)
	}
	if st.Stage != "committed" {
		t.Errorf("stage %q", st.Stage)
	}
	if st.Likelihood != 1 {
		t.Errorf("final likelihood %v", st.Likelihood)
	}
	if !st.Speculated {
		t.Error("uncontended txn never speculated at 0.9")
	}
	if st.DurationMs <= 0 {
		t.Error("no duration recorded")
	}

	quiesce(db)
	r, err := cl.Read("stock")
	if err != nil || r.Int != 7 {
		t.Errorf("stock after commit = %+v err=%v", r, err)
	}
}

func TestConflictSurfacesError(t *testing.T) {
	cl, _, db := newGateway(t, planet.Config{})
	db.Cluster().SeedInt("stock", 1, 0, 10)

	st, err := cl.SubmitAndWait(SubmitRequest{
		Ops: []Op{{Kind: "add", Key: "stock", Delta: -5}},
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed {
		t.Fatal("bound violation committed")
	}
	if !strings.Contains(st.Error, "bound") {
		t.Errorf("error %q, want bound violation", st.Error)
	}
}

func TestSetThroughGateway(t *testing.T) {
	cl, _, db := newGateway(t, planet.Config{})
	db.Cluster().SeedBytes("doc", []byte("old"))

	st, err := cl.SubmitAndWait(SubmitRequest{
		Ops: []Op{{Kind: "set", Key: "doc", Value: []byte("new")}},
	}, 10*time.Second)
	if err != nil || !st.Committed {
		t.Fatalf("set commit: %+v err=%v", st, err)
	}
	quiesce(db)
	r, _ := cl.QuorumRead("doc")
	if string(r.Bytes) != "new" || r.Version != 1 {
		t.Errorf("quorum read %+v", r)
	}
}

func TestBadRequests(t *testing.T) {
	cl, srv, _ := newGateway(t, planet.Config{})

	if _, err := cl.Submit(SubmitRequest{}); err == nil {
		t.Error("empty txn accepted")
	}
	if _, err := cl.Submit(SubmitRequest{Ops: []Op{{Kind: "frobnicate", Key: "k"}}}); err == nil {
		t.Error("unknown op kind accepted")
	}
	if _, err := cl.Status("txn-999999"); err == nil {
		t.Error("unknown txn id accepted")
	}
	if _, err := cl.Read(""); err == nil {
		t.Error("empty key accepted")
	}

	// Raw protocol-level checks.
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/read", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/read = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/txn", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON = %d", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	cl, _, db := newGateway(t, planet.Config{})
	db.Cluster().SeedInt("n", 0, 0, 100)
	if _, err := cl.SubmitAndWait(SubmitRequest{
		Ops: []Op{{Kind: "add", Key: "n", Delta: 1}},
	}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["Committed"] != 1 {
		t.Errorf("stats %v", stats)
	}
}

func TestRetentionCap(t *testing.T) {
	cl, srv, db := newGateway(t, planet.Config{})
	db.Cluster().SeedInt("n", 0, 0, 1<<30)
	srv.SetMaxTracked(4)
	var last string
	for i := 0; i < 10; i++ {
		id, err := cl.Submit(SubmitRequest{Ops: []Op{{Kind: "add", Key: "n", Delta: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		last = id
	}
	if got := srv.TrackedCount(); got > 4 {
		t.Errorf("tracked %d handles, cap 4", got)
	}
	if _, err := cl.Wait(last); err != nil {
		t.Errorf("latest txn evicted: %v", err)
	}
}

func TestAdmissionRejectionOverHTTP(t *testing.T) {
	cl, _, db := newGateway(t, planet.Config{
		Admission: planet.AdmissionPolicy{MinLikelihood: 0.9},
	})
	db.Cluster().SeedBytes("hot", []byte("v"))
	pred := db.Predictor(regions.California)
	for i := 0; i < 200; i++ {
		pred.ObserveVote("hot", regions.Virginia, false, 40*time.Millisecond)
	}

	st, err := cl.SubmitAndWait(SubmitRequest{
		Ops: []Op{{Kind: "set", Key: "hot", Value: []byte("w")}},
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Rejected || st.Stage != "rejected" {
		t.Errorf("status %+v, want admission rejection", st)
	}
}
