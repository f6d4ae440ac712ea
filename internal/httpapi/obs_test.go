package httpapi

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	planet "planet/internal/core"
	"planet/internal/obs"
)

// newObsGateway is newGateway with metrics and tracing enabled.
func newObsGateway(t *testing.T) (*Client, *Server, *planet.DB) {
	t.Helper()
	return newGateway(t, planet.Config{
		Registry: obs.NewRegistry(),
		Trace:    true,
	})
}

// TestTraceSpeculatedThenAborted is the acceptance check for the trace store: a
// transaction that speculates and then aborts must expose an ordered event
// list ending final(abort) then apology, with non-decreasing timestamps.
func TestTraceSpeculatedThenAborted(t *testing.T) {
	cl, _, db := newObsGateway(t)
	db.Cluster().SeedInt("stock", 5, 0, 10)

	// A fresh key carries an optimistic prior, so SpeculateAt 0.2 fires the
	// speculative stage at submission; the bound violation then aborts it.
	st, err := cl.SubmitAndWait(SubmitRequest{
		Ops:         []Op{{Kind: "add", Key: "stock", Delta: -20}},
		SpeculateAt: 0.2,
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed || !st.Speculated {
		t.Fatalf("want speculated abort, got %+v", st)
	}

	tr, err := cl.Trace(st.Txn)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Done || tr.Outcome != "aborted" || !tr.Speculated {
		t.Fatalf("trace header %+v", tr)
	}
	if len(tr.Events) < 4 {
		t.Fatalf("only %d events recorded: %+v", len(tr.Events), tr.Events)
	}
	for i, e := range tr.Events {
		if i > 0 && e.OffsetMs < tr.Events[i-1].OffsetMs {
			t.Errorf("event %d offset %.3f precedes event %d offset %.3f",
				i, e.OffsetMs, i-1, tr.Events[i-1].OffsetMs)
		}
	}
	if tr.Events[0].Kind != "submitted" {
		t.Errorf("first event %q, want submitted", tr.Events[0].Kind)
	}
	kinds := make([]string, len(tr.Events))
	for i, e := range tr.Events {
		kinds[i] = e.Kind
	}
	n := len(tr.Events)
	if kinds[n-1] != "apology" || kinds[n-2] != "final" {
		t.Fatalf("events must end final, apology; got %v", kinds)
	}
	if tr.Events[n-2].Accept {
		t.Error("final event claims commit on an aborted transaction")
	}
	spec := -1
	for i, k := range kinds {
		if k == "speculative" {
			spec = i
		}
	}
	if spec < 0 || spec >= n-2 {
		t.Errorf("speculative event missing or out of order: %v", kinds)
	}
}

// TestMetricsEndpoint exercises the full pipeline and asserts the
// exposition carries a healthy spread of series.
func TestMetricsEndpoint(t *testing.T) {
	cl, _, db := newObsGateway(t)
	db.Cluster().SeedInt("n", 0, 0, 1<<30)
	db.Cluster().SeedInt("bounded", 1, 0, 10)

	if _, err := cl.SubmitAndWait(SubmitRequest{
		Ops: []Op{{Kind: "add", Key: "n", Delta: 1}}, SpeculateAt: 0.5,
	}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SubmitAndWait(SubmitRequest{
		Ops: []Op{{Kind: "add", Key: "bounded", Delta: -9}},
	}, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(cl.Base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	resp.Body.Close()

	text, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	series := 0
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series++
	}
	if series < 10 {
		t.Errorf("exposition has %d series, want >= 10:\n%s", series, text)
	}
	for _, want := range []string{
		`planet_txn_stage_total{stage="committed"} 1`,
		`planet_txn_stage_total{stage="aborted"} 1`,
		`planet_txn_stage_total{stage="speculative"} 1`,
		`planet_txn_apologies_total 0`,
		`planet_txn_duration_seconds_count{outcome="committed"} 1`,
		`planet_mdcc_vote_latency_seconds_bucket{region=`,
		`le="+Inf"`,
		`planet_mdcc_decisions_total{coordinator=`,
		`planet_simnet_messages_sent_total{`,
		`planet_simnet_link_delay_seconds_count{`,
		`planet_http_requests_total{`,
		`planet_http_request_duration_seconds_count{route="/v1/txn"}`,
		`planet_txn_in_flight{region=`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestStatsSpeculationAccuracy checks the registry-backed /v1/stats fields.
func TestStatsSpeculationAccuracy(t *testing.T) {
	cl, _, db := newObsGateway(t)
	db.Cluster().SeedInt("good", 0, 0, 1<<30)
	db.Cluster().SeedInt("bad", 5, 0, 10)

	// One speculation confirmed, one contradicted.
	if _, err := cl.SubmitAndWait(SubmitRequest{
		Ops: []Op{{Kind: "add", Key: "good", Delta: 1}}, SpeculateAt: 0.2,
	}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SubmitAndWait(SubmitRequest{
		Ops: []Op{{Kind: "add", Key: "bad", Delta: -20}}, SpeculateAt: 0.2,
	}, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["Speculated"] != 2 || stats["Apologies"] != 1 {
		t.Fatalf("stats %v, want Speculated=2 Apologies=1", stats)
	}
	if got := stats["SpeculationAccuracy"]; got != 0.5 {
		t.Errorf("SpeculationAccuracy = %v, want 0.5", got)
	}
}

// TestTracesEndpoint checks the recent-trace listing and its filters.
func TestTracesEndpoint(t *testing.T) {
	cl, _, db := newObsGateway(t)
	db.Cluster().SeedInt("n", 0, 0, 1<<30)
	db.Cluster().SeedInt("bounded", 1, 0, 10)

	for i := 0; i < 3; i++ {
		if _, err := cl.SubmitAndWait(SubmitRequest{
			Ops: []Op{{Kind: "add", Key: "n", Delta: 1}},
		}, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.SubmitAndWait(SubmitRequest{
		Ops: []Op{{Kind: "add", Key: "bounded", Delta: -20}},
	}, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	all, err := cl.Traces(false, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Errorf("got %d traces, want 4", len(all))
	}
	aborted, err := cl.Traces(true, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(aborted) != 1 || aborted[0].Outcome != "aborted" {
		t.Errorf("aborted filter %+v", aborted)
	}
	limited, err := cl.Traces(false, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 2 {
		t.Errorf("limit 2 returned %d", len(limited))
	}

	resp, err := http.Get(cl.Base + "/v1/traces?limit=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit = %d, want 400", resp.StatusCode)
	}
}

// jsonError asserts resp carries the given status and a JSON error envelope,
// returning the error text.
func jsonError(t *testing.T, resp *http.Response, wantCode int) string {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Errorf("status %d, want %d", resp.StatusCode, wantCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error content type %q, want application/json", ct)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if eb.Error == "" {
		t.Error("error body has empty error field")
	}
	return eb.Error
}

// TestErrorPaths pins the JSON error envelope across malformed input,
// unknown resources, bad methods, and unknown routes.
func TestErrorPaths(t *testing.T) {
	cl, _, _ := newObsGateway(t)

	resp, err := http.Post(cl.Base+"/v1/txn", "application/json",
		strings.NewReader(`{"ops": [`))
	if err != nil {
		t.Fatal(err)
	}
	if msg := jsonError(t, resp, http.StatusBadRequest); !strings.Contains(msg, "JSON") {
		t.Errorf("malformed-body error %q", msg)
	}

	resp, err = http.Get(cl.Base + "/v1/txn/txn-999999")
	if err != nil {
		t.Fatal(err)
	}
	jsonError(t, resp, http.StatusNotFound)

	resp, err = http.Get(cl.Base + "/v1/txn/txn-999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	if msg := jsonError(t, resp, http.StatusNotFound); !strings.Contains(msg, "trace") {
		t.Errorf("unknown-trace error %q", msg)
	}

	resp, err = http.Get(cl.Base + "/v1/txn/not-an-id/trace")
	if err != nil {
		t.Fatal(err)
	}
	jsonError(t, resp, http.StatusBadRequest)

	req, err := http.NewRequest(http.MethodDelete, cl.Base+"/v1/txn", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	jsonError(t, resp, http.StatusMethodNotAllowed)

	resp, err = http.Get(cl.Base + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	if msg := jsonError(t, resp, http.StatusNotFound); !strings.Contains(msg, "/v1/nope") {
		t.Errorf("unknown-route error %q", msg)
	}
}

// TestObsDisabled404s confirms trace/metrics resources report themselves
// absent when the DB runs without a registry or tracing.
func TestObsDisabled404s(t *testing.T) {
	cl, _, _ := newGateway(t, planet.Config{})
	for _, path := range []string{"/v1/metrics", "/v1/traces", "/v1/txn/txn-1/trace"} {
		resp, err := http.Get(cl.Base + path)
		if err != nil {
			t.Fatal(err)
		}
		jsonError(t, resp, http.StatusNotFound)
	}
}
