package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	planet "planet/internal/core"
	"planet/internal/obs"
	"planet/internal/regions"
)

// hangRegions takes every region except the gateway's down, so a submitted
// transaction cannot gather votes and sits unresolved until the (long)
// commit timeout.
func hangRegions(db *planet.DB) {
	for _, r := range db.Cluster().Regions() {
		if r != regions.California {
			db.Cluster().Net.SetRegionDown(r, true)
		}
	}
}

// TestWaitBoundedTimesOut submits against a cluster whose peers are all
// down and requires the bounded wait to report a definitive timeout (the
// server's 504) plus the planet_http_wait_timeouts_total metric.
func TestWaitBoundedTimesOut(t *testing.T) {
	reg := obs.NewRegistry()
	cl, _, db := newGateway(t, planet.Config{Registry: reg})
	db.Cluster().SeedInt("stock", 10, 0, 100)
	hangRegions(db)

	id, err := cl.Submit(SubmitRequest{Ops: []Op{{Kind: "add", Key: "stock", Delta: -1}}})
	if err != nil {
		t.Fatal(err)
	}
	st, timedOut, err := cl.WaitBounded(id, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Fatalf("expected bounded wait to time out, got %+v", st)
	}
	if v, ok := reg.Value("planet_http_wait_timeouts_total"); !ok || v < 1 {
		t.Fatalf("planet_http_wait_timeouts_total = %v (ok=%v)", v, ok)
	}
}

// TestSubmitAndWaitTimeoutError requires the convenience path to surface
// ErrWaitTimeout when the transaction cannot resolve in time, instead of
// polling forever.
func TestSubmitAndWaitTimeoutError(t *testing.T) {
	cl, _, db := newGateway(t, planet.Config{})
	db.Cluster().SeedInt("stock", 10, 0, 100)
	hangRegions(db)

	start := time.Now()
	st, err := cl.SubmitAndWait(SubmitRequest{
		Ops: []Op{{Kind: "add", Key: "stock", Delta: -1}},
	}, 50*time.Millisecond)
	if err == nil {
		t.Fatal("expected a timeout error")
	}
	if !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("error %v does not wrap ErrWaitTimeout", err)
	}
	if st.Txn == "" {
		t.Error("timeout does not name the transaction it gave up on")
	}
	// The one-request wait is bounded by the caller's timeout, not by the
	// (much longer) server-side wait chunk.
	if took := time.Since(start); took > submitWaitChunk/2 {
		t.Fatalf("a 50ms budget took %v", took)
	}
}

// TestDrainingRefusesSubmits flips the gateway into drain mode and requires
// new submissions to bounce with 503 while reads keep working.
func TestDrainingRefusesSubmits(t *testing.T) {
	cl, srv, db := newGateway(t, planet.Config{})
	db.Cluster().SeedInt("stock", 10, 0, 100)

	srv.SetDraining(true)
	_, err := cl.Submit(SubmitRequest{Ops: []Op{{Kind: "add", Key: "stock", Delta: -1}}})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("draining submit error = %v, want 503", err)
	}
	if _, err := cl.Read("stock"); err != nil {
		t.Fatalf("reads must keep working while draining: %v", err)
	}

	srv.SetDraining(false)
	st, err := cl.SubmitAndWait(SubmitRequest{
		Ops: []Op{{Kind: "add", Key: "stock", Delta: -1}},
	}, 10*time.Second)
	if err != nil || !st.Committed {
		t.Fatalf("post-drain submit: st=%+v err=%v", st, err)
	}
}

// TestNetRoutesRequireEnable keeps /v1/net/* a 404 on simnet deployments.
func TestNetRoutesRequireEnable(t *testing.T) {
	cl, _, _ := newGateway(t, planet.Config{})
	if _, err := cl.NetPeers(); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("net peers without EnableRealNet: %v, want 404", err)
	}
	if _, err := cl.NetDecisions(); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("net decisions without EnableRealNet: %v, want 404", err)
	}
}

// postWait issues a raw POST /v1/txn with the given query and returns the
// status code and body.
func postWait(t *testing.T, cl *Client, query, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(cl.Base+"/v1/txn"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

const addStock = `{"ops":[{"kind":"add","key":"stock","delta":-1}]}`

// TestSubmitWaitResolves requires the one-request form to answer 200 with
// the final status — done, always — and the plain POST to keep answering
// 202 with only the id, each counted once under its own code.
func TestSubmitWaitResolves(t *testing.T) {
	reg := obs.NewRegistry()
	cl, _, db := newGateway(t, planet.Config{Registry: reg})
	db.Cluster().SeedInt("stock", 100, 0, 100)

	const n = 20
	for i := 0; i < n; i++ {
		code, raw := postWait(t, cl, "?wait=1&waitms=5000", addStock)
		var st Status
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("body %q: %v", raw, err)
		}
		if code != http.StatusOK || !st.Done || !st.Committed || st.Txn == "" {
			t.Fatalf("wait=1 answered %d %+v, want 200 done committed", code, st)
		}
	}
	// An unbounded wait resolves the same way.
	if code, raw := postWait(t, cl, "?wait=1", addStock); code != http.StatusOK || !strings.Contains(string(raw), `"done":true`) {
		t.Fatalf("unbounded wait answered %d %s", code, raw)
	}
	// The plain POST is the async contract: 202 and nothing but the id.
	code, raw := postWait(t, cl, "", addStock)
	var sub map[string]any
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusAccepted || len(sub) != 1 || sub["txn"] == "" {
		t.Fatalf("plain POST answered %d %s, want 202 {txn}", code, raw)
	}
	if _, err := cl.Wait(sub["txn"].(string)); err != nil {
		t.Fatal(err)
	}

	for labels, want := range map[string]float64{"200": n + 1, "202": 1} {
		got, ok := reg.Value("planet_http_requests_total", obs.L("route", "/v1/txn"), obs.L("code", labels))
		if !ok || got != want {
			t.Errorf("planet_http_requests_total{route=/v1/txn,code=%s} = %v (ok=%v), want %v", labels, got, ok, want)
		}
	}
	if r, _ := cl.Read("stock"); r.Int != 100-(n+2) {
		t.Fatalf("stock = %d after %d commits", r.Int, n+2)
	}
}

// TestSubmitWaitBoundFallsBack runs a transaction slower than the wait
// bound: the server answers 202 with the id, and SubmitAndWait carries on
// with bounded status waits on that id — never a second submission — until
// the one transaction commits.
func TestSubmitWaitBoundFallsBack(t *testing.T) {
	reg := obs.NewRegistry()
	cl, srv, db := newGatewayAt(t, planet.Config{Registry: reg}, 1.0)
	db.Cluster().SeedInt("stock", 10, 0, 100)

	code, raw := postWait(t, cl, "?wait=1&waitms=5", addStock)
	var sub SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil || code != http.StatusAccepted || sub.Txn == "" {
		t.Fatalf("expired wait answered %d %s (%v), want 202 {txn}", code, raw, err)
	}
	if st, err := cl.Wait(sub.Txn); err != nil || !st.Committed {
		t.Fatalf("transaction behind the 202: %+v, %v", st, err)
	}

	st, err := cl.submitAndWait(SubmitRequest{Ops: []Op{{Kind: "add", Key: "stock", Delta: -1}}},
		30*time.Second, 10*time.Millisecond)
	if err != nil || !st.Done || !st.Committed {
		t.Fatalf("fallback path: %+v, %v", st, err)
	}
	if got := srv.TrackedCount(); got != 2 {
		t.Fatalf("%d transactions tracked, want 2 (one per submission)", got)
	}
	// The local replica learns the decide by message, which may still be in
	// flight when the status reports the commit: let the network drain
	// first. Less than 8 would be a second submission.
	quiesce(db)
	if r, err := cl.Read("stock"); err != nil || r.Int != 8 {
		t.Fatalf("stock = %d (%v), want 8: the fallback must not resubmit", r.Int, err)
	}
	if v, _ := reg.Value("planet_http_wait_timeouts_total"); v < 2 {
		t.Fatalf("planet_http_wait_timeouts_total = %v, want the two expired submit waits counted", v)
	}
}

// TestSubmitWaitUnderClientTimeout gives the HTTP client a Timeout shorter
// than both the transaction and the wait chunk: the held request must be
// bounded below it, so the client sees a 202 and falls back — never its own
// timeout firing on a transaction that then commits.
func TestSubmitWaitUnderClientTimeout(t *testing.T) {
	cl, srv, db := newGatewayAt(t, planet.Config{}, 1.0)
	db.Cluster().SeedInt("stock", 10, 0, 100)
	cl.HTTP = &http.Client{Timeout: 40 * time.Millisecond}

	st, err := cl.SubmitAndWait(SubmitRequest{Ops: []Op{{Kind: "add", Key: "stock", Delta: -1}}}, 30*time.Second)
	if err != nil || !st.Done || !st.Committed {
		t.Fatalf("commit slower than the client timeout: %+v, %v", st, err)
	}
	if got := srv.TrackedCount(); got != 1 {
		t.Fatalf("%d transactions tracked, want 1", got)
	}
}

// cutTransport breaks every POST after a delay, like a connection reset
// while the server holds the request.
type cutTransport struct{ after time.Duration }

func (c cutTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost {
		ctx, cancel := context.WithTimeout(r.Context(), c.after)
		defer cancel()
		r = r.WithContext(ctx)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestSubmitWaitTransportError breaks the connection under the held POST.
// No id came back, so SubmitAndWait must return the error at once, say that
// the outcome is unknown, and not submit again: exactly one transaction is
// tracked, and it is the caller's to find.
func TestSubmitWaitTransportError(t *testing.T) {
	cl, srv, db := newGateway(t, planet.Config{})
	db.Cluster().SeedInt("stock", 10, 0, 100)
	hangRegions(db)
	cl.HTTP = &http.Client{Transport: cutTransport{after: 30 * time.Millisecond}}

	start := time.Now()
	st, err := cl.SubmitAndWait(SubmitRequest{Ops: []Op{{Kind: "add", Key: "stock", Delta: -1}}}, 5*time.Second)
	if err == nil || errors.Is(err, ErrWaitTimeout) || !strings.Contains(err.Error(), "outcome unknown") {
		t.Fatalf("broken held POST: %+v, %v; want an outcome-unknown transport error", st, err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("transport error surfaced after %v", took)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.TrackedCount() != 1 && time.Now().Before(deadline) {
		sleep(db, time.Millisecond)
	}
	sleep(db, 20*time.Millisecond) // a resubmission would land by now
	if got := srv.TrackedCount(); got != 1 {
		t.Fatalf("%d transactions tracked, want exactly the one submitted", got)
	}
}

// TestSubmitWaitRefusals covers the answers that are not an outcome:
// draining bounces the one-request form with 503 like any submission, and a
// malformed waitms is a 400 that submits nothing.
func TestSubmitWaitRefusals(t *testing.T) {
	cl, srv, db := newGateway(t, planet.Config{})
	db.Cluster().SeedInt("stock", 10, 0, 100)

	for _, q := range []string{"?wait=1&waitms=abc", "?wait=1&waitms=0", "?wait=1&waitms=-5"} {
		if code, raw := postWait(t, cl, q, addStock); code != http.StatusBadRequest || !strings.Contains(string(raw), "bad waitms") {
			t.Errorf("POST /v1/txn%s answered %d %s, want 400", q, code, raw)
		}
	}
	if got := srv.TrackedCount(); got != 0 {
		t.Fatalf("a refused request submitted %d transactions", got)
	}

	srv.SetDraining(true)
	if code, raw := postWait(t, cl, "?wait=1&waitms=1000", addStock); code != http.StatusServiceUnavailable {
		t.Fatalf("draining answered %d %s, want 503", code, raw)
	}
	if got := srv.TrackedCount(); got != 0 {
		t.Fatalf("a draining gateway submitted %d transactions", got)
	}
}

// TestSubmitWaitClientGone abandons the request mid-wait: the transaction
// was submitted, so it must stay tracked for whoever asks next.
func TestSubmitWaitClientGone(t *testing.T) {
	cl, srv, db := newGateway(t, planet.Config{})
	db.Cluster().SeedInt("stock", 10, 0, 100)
	hangRegions(db)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.Base+"/v1/txn?wait=1", strings.NewReader(addStock))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("abandoned request answered %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.TrackedCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d transactions tracked after the client left, want 1", srv.TrackedCount())
		}
		sleep(db, time.Millisecond)
	}
}
