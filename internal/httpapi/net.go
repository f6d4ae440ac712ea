package httpapi

// Transport administration: when the gateway is built with EnableRealNet
// (planetd -realnet), the /v1/net/* routes expose the local coordinator's
// view of its peers, the TCP transport's counters and OS-level-style fault
// injection, plus the replica's decision map — the observability surface
// the multi-process harness drives its partition cycles and agreement
// audits through.
//
//	GET  /v1/net/peers      peer states (the failure detector's) + transport counters
//	POST /v1/net/cut        {"region":R,"cut":true|false}  sever/heal a link
//	POST /v1/net/listener   {"drop":true|false}  stop/resume accepting peers
//	GET  /v1/net/decisions  every retained txn verdict at the local replica
//	GET  /v1/net/lease      this replica's view of every keyspace lease
//
// Without EnableRealNet every /v1/net/* request returns 404.

import (
	"net/http"
	"strings"

	"planet/internal/mdcc"
	"planet/internal/obs"
	"planet/internal/realnet"
	"planet/internal/simnet"
)

// netAdmin bundles what the /v1/net/* routes operate on.
type netAdmin struct {
	transport *realnet.Transport
	replica   *mdcc.Replica
	coord     *mdcc.Coordinator
	regions   []simnet.Region
}

// peerStates is the local coordinator's failure-detector view of every
// remote region: "up" or "down".
func (na *netAdmin) peerStates() map[string]string {
	out := make(map[string]string, len(na.regions))
	for _, r := range na.regions {
		if r != na.replica.Region() {
			out[string(r)] = "up"
		}
	}
	for _, r := range na.coord.DownReplicas() {
		if r != na.replica.Region() {
			out[string(r)] = "down"
		}
	}
	return out
}

// NetPeersResponse is the GET /v1/net/peers body.
type NetPeersResponse struct {
	// Peers maps each remote region to the local coordinator's view of it
	// ("up" or "down"; see mdcc's failure detector).
	Peers map[string]string `json:"peers"`
	// Stats are the transport's cumulative counters.
	Stats realnet.StatsSnapshot `json:"stats"`
}

// NetCutRequest is the POST /v1/net/cut body.
type NetCutRequest struct {
	Region string `json:"region"`
	Cut    bool   `json:"cut"`
}

// NetListenerRequest is the POST /v1/net/listener body.
type NetListenerRequest struct {
	Drop bool `json:"drop"`
}

// NetDecisionsResponse is the GET /v1/net/decisions body: transaction ID →
// committed, for every decision the local replica retains.
type NetDecisionsResponse struct {
	Decisions map[string]bool `json:"decisions"`
}

// NetLeaseResponse is the GET /v1/net/lease body: the local replica's view
// of every keyspace lease, plus how many takeovers it has won. Enabled is
// false (and Leases empty) when the deployment runs static mastership.
type NetLeaseResponse struct {
	Enabled   bool             `json:"enabled"`
	Leases    []mdcc.LeaseInfo `json:"leases,omitempty"`
	Takeovers uint64           `json:"takeovers"`
}

// EnableRealNet attaches the deployment transport (and the local replica,
// for the decisions audit, and its region's coordinator, for peer states)
// to the gateway, activating the /v1/net/* routes and, when the gateway has
// a registry, the planet_realnet_* series of /v1/metrics. Call before
// serving traffic.
func (s *Server) EnableRealNet(tr *realnet.Transport, replica *mdcc.Replica) {
	c := s.db.Cluster()
	na := &netAdmin{transport: tr, replica: replica, coord: c.Coordinator(replica.Region()), regions: c.Regions()}
	s.mu.Lock()
	s.net = na
	s.mu.Unlock()
	if s.reg != nil {
		registerRealnetMetrics(s.reg, na)
	}
}

// registerRealnetMetrics exposes the transport's counters and the count of
// peers the coordinator holds down. Frames and socket calls are counted
// separately: sent/writes (and delivered/reads) is how many frames one
// syscall carries.
func registerRealnetMetrics(reg *obs.Registry, na *netAdmin) {
	tr := na.transport
	snap := func(pick func(realnet.StatsSnapshot) uint64) func() float64 {
		return func() float64 { return float64(pick(tr.StatsSnapshot())) }
	}
	reg.GaugeFunc("planet_realnet_sent_total",
		"Frames written to peer sockets.",
		snap(func(s realnet.StatsSnapshot) uint64 { return s.Sent }))
	reg.GaugeFunc("planet_realnet_writes_total",
		"Socket writes to peers (each carries one or more frames).",
		snap(func(s realnet.StatsSnapshot) uint64 { return s.Writes }))
	reg.GaugeFunc("planet_realnet_reads_total",
		"Socket reads from peers (each returns zero or more frames).",
		snap(func(s realnet.StatsSnapshot) uint64 { return s.Reads }))
	reg.GaugeFunc("planet_realnet_delivered_total",
		"Payloads delivered to local handlers.",
		snap(func(s realnet.StatsSnapshot) uint64 { return s.Delivered }))
	reg.GaugeFunc("planet_realnet_dropped_total",
		"Payloads dropped (cut links, full queues, dead peers).",
		snap(func(s realnet.StatsSnapshot) uint64 { return s.Dropped }))
	reg.GaugeFunc("planet_realnet_decode_errors_total",
		"Inbound frames rejected as malformed (connection closed).",
		snap(func(s realnet.StatsSnapshot) uint64 { return s.DecodeErrors }))
	reg.GaugeFunc("planet_realnet_reconnects_total",
		"Peer connections re-established after a drop.",
		snap(func(s realnet.StatsSnapshot) uint64 { return s.Reconnects }))
	reg.GaugeFunc("planet_realnet_peers_down",
		"Remote peers the coordinator's failure detector holds down.",
		func() float64 {
			n := 0
			for _, st := range na.peerStates() {
				if st == "down" {
					n++
				}
			}
			return float64(n)
		})
}

// netAdminState returns the attached transport admin, if any.
func (s *Server) netAdminState() *netAdmin {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.net
}

// handleNet dispatches /v1/net/*.
func (s *Server) handleNet(w http.ResponseWriter, r *http.Request) {
	na := s.netAdminState()
	if na == nil {
		writeErr(w, http.StatusNotFound, "transport administration is not enabled on this deployment")
		return
	}
	switch strings.TrimPrefix(r.URL.Path, "/v1/net/") {
	case "peers":
		if r.Method != http.MethodGet {
			writeErr(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		writeJSON(w, http.StatusOK, NetPeersResponse{Peers: na.peerStates(), Stats: na.transport.StatsSnapshot()})
	case "cut":
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		var req NetCutRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		if req.Region == "" {
			writeErr(w, http.StatusBadRequest, "missing region")
			return
		}
		na.transport.CutPeer(simnet.Region(req.Region), req.Cut)
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	case "listener":
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		var req NetListenerRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		if req.Drop {
			na.transport.DropListener()
		} else if err := na.transport.RestoreListener(); err != nil {
			writeErr(w, http.StatusServiceUnavailable, "restore listener: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	case "lease":
		if r.Method != http.MethodGet {
			writeErr(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		var resp NetLeaseResponse
		resp.Enabled, resp.Leases, resp.Takeovers = na.replica.LeaseTable()
		writeJSON(w, http.StatusOK, resp)
	case "decisions":
		if r.Method != http.MethodGet {
			writeErr(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		decided := na.replica.Decisions()
		resp := NetDecisionsResponse{Decisions: make(map[string]bool, len(decided))}
		for id, commit := range decided {
			resp.Decisions[id.String()] = commit
		}
		writeJSON(w, http.StatusOK, resp)
	default:
		writeErr(w, http.StatusNotFound, "no route %s", r.URL.Path)
	}
}
