package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"planet/internal/chaos"
	planet "planet/internal/core"
	"planet/internal/regions"
)

// chaosPost POSTs a JSON body to path and decodes the response into out
// (when non-nil), returning the status code.
func chaosPost(t *testing.T, base, path string, body, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decode: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestChaosEndpointsDisabledBy404(t *testing.T) {
	cl, _, _ := newGateway(t, planet.Config{})
	if code := chaosPost(t, cl.Base, "/v1/chaos/loss", ChaosLossRequest{Rate: 0.5}, nil); code != http.StatusNotFound {
		t.Fatalf("chaos without EnableChaos: status %d, want 404", code)
	}
	resp, err := http.Get(cl.Base + "/v1/chaos/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events without EnableChaos: status %d, want 404", resp.StatusCode)
	}
}

func TestChaosEndpoints(t *testing.T) {
	cl, srv, db := newGateway(t, planet.Config{})
	eng, err := chaos.New(chaos.Config{Cluster: db.Cluster()})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableChaos(eng)
	net := db.Cluster().Net

	// Loss burst on, then healed.
	if code := chaosPost(t, cl.Base, "/v1/chaos/loss", ChaosLossRequest{Rate: 0.4}, nil); code != http.StatusOK {
		t.Fatalf("loss: status %d", code)
	}
	if got := net.LossRate(); got != 0.4 {
		t.Fatalf("LossRate=%v, want 0.4", got)
	}
	if code := chaosPost(t, cl.Base, "/v1/chaos/loss", ChaosLossRequest{Rate: 0}, nil); code != http.StatusOK {
		t.Fatalf("heal loss: status %d", code)
	}

	// Latency spike, then cleared via factor 0.
	spike := ChaosLatencyRequest{From: string(regions.California), To: string(regions.Ireland), Factor: 5}
	if code := chaosPost(t, cl.Base, "/v1/chaos/latency", spike, nil); code != http.StatusOK {
		t.Fatalf("latency: status %d", code)
	}
	if got := net.LinkDelayFactor(regions.California, regions.Ireland); got != 5 {
		t.Fatalf("LinkDelayFactor=%v, want 5", got)
	}
	spike.Factor = 0
	if code := chaosPost(t, cl.Base, "/v1/chaos/latency", spike, nil); code != http.StatusOK {
		t.Fatalf("clear latency: status %d", code)
	}

	// Region blackout + link cut round trips.
	if code := chaosPost(t, cl.Base, "/v1/chaos/region",
		ChaosRegionRequest{Region: string(regions.Virginia), Down: true}, nil); code != http.StatusOK {
		t.Fatalf("region down: status %d", code)
	}
	if code := chaosPost(t, cl.Base, "/v1/chaos/region",
		ChaosRegionRequest{Region: string(regions.Virginia), Down: false}, nil); code != http.StatusOK {
		t.Fatalf("region up: status %d", code)
	}
	if code := chaosPost(t, cl.Base, "/v1/chaos/link",
		ChaosLinkRequest{From: string(regions.Tokyo), To: string(regions.Virginia), Cut: true}, nil); code != http.StatusOK {
		t.Fatalf("link cut: status %d", code)
	}
	if code := chaosPost(t, cl.Base, "/v1/chaos/link",
		ChaosLinkRequest{From: string(regions.Tokyo), To: string(regions.Virginia), Cut: false}, nil); code != http.StatusOK {
		t.Fatalf("link heal: status %d", code)
	}

	// Replica crash + restart.
	victim := regions.Singapore
	if code := chaosPost(t, cl.Base, "/v1/chaos/crash",
		ChaosNodeRequest{Node: "replica", Region: string(victim)}, nil); code != http.StatusOK {
		t.Fatalf("crash: status %d", code)
	}
	if !db.Cluster().Replica(victim).Crashed() {
		t.Fatal("replica not crashed after POST /v1/chaos/crash")
	}
	if code := chaosPost(t, cl.Base, "/v1/chaos/restart",
		ChaosNodeRequest{Node: "replica", Region: string(victim)}, nil); code != http.StatusOK {
		t.Fatalf("restart: status %d", code)
	}
	if db.Cluster().Replica(victim).Crashed() {
		t.Fatal("replica still crashed after POST /v1/chaos/restart")
	}

	// Bad requests are rejected.
	if code := chaosPost(t, cl.Base, "/v1/chaos/region",
		ChaosRegionRequest{Region: "atlantis", Down: true}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown region: status %d, want 400", code)
	}
	if code := chaosPost(t, cl.Base, "/v1/chaos/crash",
		ChaosNodeRequest{Node: "mainframe", Region: string(victim)}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown node kind: status %d, want 400", code)
	}

	// Scenario run by preset, then stopped; heals on the way out.
	var scResp ChaosScenarioResponse
	if code := chaosPost(t, cl.Base, "/v1/chaos/scenario",
		ChaosScenarioRequest{Preset: "flaky"}, &scResp); code != http.StatusAccepted {
		t.Fatalf("scenario: status %d", code)
	}
	if scResp.Name != "flaky" || len(scResp.Faults) == 0 {
		t.Fatalf("scenario response %+v", scResp)
	}
	if code := chaosPost(t, cl.Base, "/v1/chaos/stop", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("stop: status %d", code)
	}
	if eng.Running() {
		t.Fatal("scenario still running after stop")
	}
	if got := net.LossRate(); got != 0 {
		t.Fatalf("loss rate %v after stop, want 0", got)
	}

	// Generated scenario via seed.
	var gen ChaosScenarioResponse
	if code := chaosPost(t, cl.Base, "/v1/chaos/scenario",
		ChaosScenarioRequest{Seed: 5, SpanMs: 1000}, &gen); code != http.StatusAccepted {
		t.Fatalf("generated scenario: status %d", code)
	}
	inWorld(db, eng.Wait)

	// Injection history is queryable.
	resp, err := http.Get(cl.Base + "/v1/chaos/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events ChaosEventsResponse
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	if len(events.Events) < 10 {
		t.Fatalf("history has %d events, want >= 10", len(events.Events))
	}
}
