package httpapi

// Runtime fault injection: when the gateway is built with EnableChaos, the
// /v1/chaos/* routes drive the chaos engine over HTTP so an operator (or a
// game-day script) can break the deployment while watching /v1/metrics and
// /v1/traces react.
//
//	POST /v1/chaos/region    {"region":R,"down":true|false}
//	POST /v1/chaos/link      {"from":A,"to":B,"cut":true|false}
//	POST /v1/chaos/loss      {"rate":0.2}            (0 heals)
//	POST /v1/chaos/latency   {"from":A,"to":B,"factor":4}  (0 or 1 heals)
//	POST /v1/chaos/crash     {"node":"replica"|"coordinator","region":R}
//	POST /v1/chaos/restart   {"node":"replica"|"coordinator","region":R}
//	POST /v1/chaos/scenario  {"preset":"mixed"} or {"seed":7,"spanMs":60000}
//	POST /v1/chaos/stop      abort the running scenario (heals everything)
//	GET  /v1/chaos/events    injection history
//
// Without EnableChaos every /v1/chaos/* request returns 404.

import (
	"encoding/json"
	"net/http"
	"time"

	"planet/internal/chaos"
	"planet/internal/simnet"
)

// ChaosRegionRequest is the POST /v1/chaos/region body.
type ChaosRegionRequest struct {
	Region string `json:"region"`
	Down   bool   `json:"down"`
}

// ChaosLinkRequest is the POST /v1/chaos/link body.
type ChaosLinkRequest struct {
	From string `json:"from"`
	To   string `json:"to"`
	Cut  bool   `json:"cut"`
}

// ChaosLossRequest is the POST /v1/chaos/loss body.
type ChaosLossRequest struct {
	Rate float64 `json:"rate"`
}

// ChaosLatencyRequest is the POST /v1/chaos/latency body. Factor 0 or 1
// clears the spike.
type ChaosLatencyRequest struct {
	From   string  `json:"from"`
	To     string  `json:"to"`
	Factor float64 `json:"factor"`
}

// ChaosNodeRequest is the POST /v1/chaos/crash and /v1/chaos/restart body.
type ChaosNodeRequest struct {
	// Node is "replica" or "coordinator".
	Node   string `json:"node"`
	Region string `json:"region"`
}

// ChaosScenarioRequest is the POST /v1/chaos/scenario body: a preset name,
// or a generated schedule from a seed.
type ChaosScenarioRequest struct {
	Preset string `json:"preset,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	// SpanMs is the generated scenario length in unscaled WAN milliseconds
	// (default 60000).
	SpanMs int64 `json:"spanMs,omitempty"`
}

// ChaosScenarioResponse echoes the scheduled faults.
type ChaosScenarioResponse struct {
	Name   string        `json:"name"`
	Faults []chaos.Fault `json:"faults"`
}

// ChaosEventsResponse is the GET /v1/chaos/events body.
type ChaosEventsResponse struct {
	Events []chaos.Injection `json:"events"`
}

// okBody is the minimal success envelope for injection endpoints.
type okBody struct {
	OK bool `json:"ok"`
}

// EnableChaos attaches a fault-injection engine to the gateway, activating
// the /v1/chaos/* routes. Call before serving traffic.
func (s *Server) EnableChaos(eng *chaos.Engine) {
	s.mu.Lock()
	s.chaos = eng
	s.mu.Unlock()
}

// chaosEngine returns the attached engine, if any.
func (s *Server) chaosEngine() *chaos.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chaos
}

// handleChaos dispatches /v1/chaos/*.
func (s *Server) handleChaos(w http.ResponseWriter, r *http.Request) {
	eng := s.chaosEngine()
	if eng == nil {
		writeErr(w, http.StatusNotFound, "chaos injection is not enabled on this deployment")
		return
	}
	if r.URL.Path == "/v1/chaos/events" {
		if r.Method != http.MethodGet {
			writeErr(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		writeJSON(w, http.StatusOK, ChaosEventsResponse{Events: eng.Injected()})
		return
	}
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	// Every injection is a synchronous call into the cluster; Stop also
	// waits for the scenario's heals through the clock.
	s.clk.AddWork(1)
	defer s.clk.WorkDone()

	var err error
	switch r.URL.Path {
	case "/v1/chaos/region":
		var req ChaosRegionRequest
		if !decodeChaos(w, r, &req) {
			return
		}
		if req.Down {
			err = eng.RegionDown(simnet.Region(req.Region))
		} else {
			err = eng.RegionUp(simnet.Region(req.Region))
		}
	case "/v1/chaos/link":
		var req ChaosLinkRequest
		if !decodeChaos(w, r, &req) {
			return
		}
		if req.Cut {
			err = eng.CutLink(simnet.Region(req.From), simnet.Region(req.To))
		} else {
			err = eng.HealLink(simnet.Region(req.From), simnet.Region(req.To))
		}
	case "/v1/chaos/loss":
		var req ChaosLossRequest
		if !decodeChaos(w, r, &req) {
			return
		}
		err = eng.SetLoss(req.Rate)
	case "/v1/chaos/latency":
		var req ChaosLatencyRequest
		if !decodeChaos(w, r, &req) {
			return
		}
		if req.Factor == 0 || req.Factor == 1 {
			err = eng.ClearLatency(simnet.Region(req.From), simnet.Region(req.To))
		} else {
			err = eng.SpikeLatency(simnet.Region(req.From), simnet.Region(req.To), req.Factor)
		}
	case "/v1/chaos/crash", "/v1/chaos/restart":
		var req ChaosNodeRequest
		if !decodeChaos(w, r, &req) {
			return
		}
		restart := r.URL.Path == "/v1/chaos/restart"
		switch req.Node {
		case "replica", "":
			if restart {
				err = eng.RestartReplica(simnet.Region(req.Region))
			} else {
				err = eng.CrashReplica(simnet.Region(req.Region))
			}
		case "coordinator":
			if restart {
				err = eng.RestartCoordinator(simnet.Region(req.Region))
			} else {
				err = eng.CrashCoordinator(simnet.Region(req.Region))
			}
		default:
			writeErr(w, http.StatusBadRequest, "node must be \"replica\" or \"coordinator\", got %q", req.Node)
			return
		}
	case "/v1/chaos/scenario":
		var req ChaosScenarioRequest
		if !decodeChaos(w, r, &req) {
			return
		}
		var sc chaos.Scenario
		if req.Preset != "" {
			sc, err = chaos.Preset(req.Preset, eng.Cluster().Regions())
		} else {
			span := time.Duration(req.SpanMs) * time.Millisecond
			sc, err = chaos.Generate(eng.Cluster().Regions(), chaos.GenConfig{Seed: req.Seed, Span: span})
		}
		if err == nil {
			err = eng.Run(sc)
		}
		if err == nil {
			writeJSON(w, http.StatusAccepted, ChaosScenarioResponse{Name: sc.Name, Faults: sc.Faults})
			return
		}
	case "/v1/chaos/stop":
		eng.Stop()
	default:
		writeErr(w, http.StatusNotFound, "no chaos route %s", r.URL.Path)
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, okBody{OK: true})
}

// decodeChaos decodes a JSON body, writing the error response on failure.
func decodeChaos(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad JSON: %v", err)
		return false
	}
	return true
}
