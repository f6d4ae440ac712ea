// Package httpapi exposes a PLANET region over HTTP/JSON — the gateway an
// application server in that datacenter would embed. The API mirrors the
// staged programming model: submitting a transaction returns immediately
// with a transaction ID, and its stage, live commit likelihood, and final
// outcome are polled (or awaited) on a status resource.
//
//	GET  /v1/read?key=K[&quorum=1]     read committed state
//	POST /v1/txn[?wait=1[&waitms=N]]   submit a transaction (JSON body);
//	                                   202 {txn} at once, or with wait=1
//	                                   200 with the final status (202 {txn}
//	                                   when waitms expires first)
//	GET  /v1/txn/{id}[?wait=1[&waitms=N]]  stage/likelihood/outcome; waitms
//	                                   bounds the server-side wait and
//	                                   returns 504 when it expires
//	GET  /v1/txn/{id}/trace            recorded lifecycle events + causal
//	                                   span tree (requires Config.Trace)
//	GET  /v1/traces[?aborted=1&slow=1&limit=N]  recent completed traces
//	                                   (requires Config.Trace)
//	GET  /v1/attribution[?format=table]  per-stage latency variance
//	                                   attribution (requires Config.Trace)
//	GET  /v1/stats                     DB-wide outcome counters
//	GET  /v1/metrics                   Prometheus text exposition
//	POST /v1/chaos/*                   runtime fault injection (see chaos.go;
//	                                   requires EnableChaos, else 404)
//	*    /v1/net/*                     peer states, partitions,
//	                                   decisions (see net.go; requires
//	                                   EnableRealNet, else 404)
//
// The trace and metrics resources require the DB to be opened with
// Config.Trace / an obs.Registry; without one they return 404. Every response —
// including errors — is JSON, except /v1/metrics which is Prometheus text.
//
// Handlers run on net/http's goroutines, which the cluster clock does not
// track. Each one enters the clock through its outsider pin (AddWork and
// WorkDone) only around its synchronous calls into the DB, and never holds
// the pin while it waits for an outcome, so a paced virtual clock keeps
// running while requests wait. On vclock.Real the pin is a no-op.
//
// The package also provides the matching Client. Both sides use only the
// standard library. The bodies every commit and read crosses (SubmitRequest,
// Status, SubmitResponse, ReadResponse and the error envelope) go through
// the hand-written codecs in codec.go, byte-identical to encoding/json and
// falling back to it for any body outside their canonical shape; every
// other body uses encoding/json. Request bodies are capped at
// maxRequestBody (413 beyond it).
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"planet/internal/chaos"
	planet "planet/internal/core"
	"planet/internal/obs"
	"planet/internal/realnet"
	"planet/internal/txn"
	"planet/internal/vclock"
)

// Op is the wire form of one transaction operation.
type Op struct {
	// Kind is "set" or "add".
	Kind string `json:"kind"`
	Key  string `json:"key"`
	// Value is the new value for "set" (JSON base64 of the bytes).
	Value []byte `json:"value,omitempty"`
	// Delta is the increment for "add".
	Delta int64 `json:"delta,omitempty"`
}

// SubmitRequest is the POST /v1/txn body.
type SubmitRequest struct {
	Ops []Op `json:"ops"`
	// SpeculateAt enables speculative commit at this likelihood.
	SpeculateAt float64 `json:"speculateAt,omitempty"`
	// DeadlineMs arms the deadline callback (recorded in the status).
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
}

// SubmitResponse returns the transaction handle's identity.
type SubmitResponse struct {
	Txn string `json:"txn"`
}

// Status is the wire form of a transaction's progress/outcome.
type Status struct {
	Txn          string  `json:"txn"`
	Stage        string  `json:"stage"`
	Likelihood   float64 `json:"likelihood"`
	Done         bool    `json:"done"`
	Committed    bool    `json:"committed"`
	Rejected     bool    `json:"rejected"`
	Speculated   bool    `json:"speculated"`
	DeadlineHit  bool    `json:"deadlineHit"`
	Error        string  `json:"error,omitempty"`
	DurationMs   float64 `json:"durationMs"`
	VotesSeen    int     `json:"votesSeen"`
	VotesOverall int     `json:"votesOverall"`
}

// ReadResponse is the GET /v1/read body.
type ReadResponse struct {
	Key     string `json:"key"`
	Found   bool   `json:"found"`
	Bytes   []byte `json:"bytes,omitempty"`
	Int     int64  `json:"int,omitempty"`
	Version int64  `json:"version"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// tracked pairs a handle with server-side observations.
type tracked struct {
	handle      *planet.Handle
	mu          sync.Mutex
	speculated  bool
	deadlineHit bool
	start       time.Time
	outcome     *txn.Outcome
	// final is closed by OnFinal once outcome is set: a server-side wait
	// that resolves on it always reports done.
	final chan struct{}
}

// Server serves one region's sessions over HTTP. Create with NewServer and
// mount it as an http.Handler.
type Server struct {
	session *planet.Session
	db      *planet.DB
	clk     vclock.Clock // the cluster clock, entered through its pin
	mux     *http.ServeMux
	reg     *obs.Registry

	mu     sync.Mutex
	txns   map[string]*tracked
	order  []string
	maxTxn int
	chaos  *chaos.Engine // nil unless EnableChaos
	net    *netAdmin     // nil unless EnableRealNet

	// draining refuses new transactions with 503 while graceful shutdown
	// waits for in-flight ones (planetd's SIGTERM path).
	draining atomic.Bool

	// waitTimeouts counts server-side waits that hit their waitms bound
	// (nil without a registry).
	waitTimeouts *obs.Counter
}

// NewServer builds a gateway for one region of db. When the DB carries an
// obs.Registry, every route is wrapped in request-latency middleware and
// the /v1/metrics and trace endpoints go live.
func NewServer(db *planet.DB, session *planet.Session) *Server {
	s := &Server{
		session: session,
		db:      db,
		clk:     db.Cluster().Clock(),
		mux:     http.NewServeMux(),
		reg:     db.Registry(),
		txns:    make(map[string]*tracked),
		maxTxn:  4096,
	}
	if s.reg != nil {
		s.waitTimeouts = s.reg.Counter("planet_http_wait_timeouts_total",
			"Server-side waits that hit their waitms bound before the transaction resolved.")
	}
	s.mux.HandleFunc("/v1/read", s.route("/v1/read", s.handleRead))
	s.mux.HandleFunc("/v1/txn", s.route("/v1/txn", s.handleSubmit))
	s.mux.HandleFunc("/v1/txn/", s.route("/v1/txn/{id}", s.handleStatus))
	s.mux.HandleFunc("/v1/stats", s.route("/v1/stats", s.handleStats))
	s.mux.HandleFunc("/v1/traces", s.route("/v1/traces", s.handleTraces))
	s.mux.HandleFunc("/v1/attribution", s.route("/v1/attribution", s.handleAttribution))
	s.mux.HandleFunc("/v1/metrics", s.route("/v1/metrics", s.handleMetrics))
	s.mux.HandleFunc("/v1/chaos/", s.route("/v1/chaos/*", s.handleChaos))
	s.mux.HandleFunc("/v1/net/", s.route("/v1/net/*", s.handleNet))
	// Unknown routes get the same JSON error envelope as everything else.
	s.mux.HandleFunc("/", s.route("other", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, "no route %s", r.URL.Path)
	}))
	return s
}

// statusWriter captures the response code for the request middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader implements http.ResponseWriter.
func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// route wraps h in per-route latency/count middleware; with no registry it
// returns h unchanged.
func (s *Server) route(route string, h http.HandlerFunc) http.HandlerFunc {
	if s.reg == nil {
		return h
	}
	hist := s.reg.Histogram("planet_http_request_duration_seconds",
		"Gateway request latency by route.", obs.L("route", route))
	counter := func(code int) *obs.Counter {
		return s.reg.Counter("planet_http_requests_total", "Gateway requests by route and status code.",
			obs.L("route", route), obs.L("code", strconv.Itoa(code)))
	}
	// The two codes of the commit path are resolved once per route, on
	// first use (a series exists only for codes the route has answered);
	// every other code pays the registry lookup.
	var ok, accepted atomic.Pointer[obs.Counter]
	cached := func(slot *atomic.Pointer[obs.Counter], code int) *obs.Counter {
		c := slot.Load()
		if c == nil {
			c = counter(code)
			slot.Store(c)
		}
		return c
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		hist.Observe(time.Since(start))
		switch sw.code {
		case http.StatusOK:
			cached(&ok, sw.code).Inc()
		case http.StatusAccepted:
			cached(&accepted, sw.code).Inc()
		default:
			counter(sw.code).Inc()
		}
	}
}

// pinned runs f, a synchronous call into the DB, holding the cluster
// clock's outsider pin.
func (s *Server) pinned(f func()) {
	s.clk.AddWork(1)
	defer s.clk.WorkDone()
	f()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// respond writes body, a JSON document and its newline, as the response.
func respond(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// writeJSON writes v with the given status code, as json.Encoder writes it:
// the document, then a newline. A value encoding/json refuses answers 500.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	respond(w, code, append(body, '\n'))
}

// writeBody is writeJSON for the hot shapes: enc appends the document to a
// pooled buffer, byte for byte what writeJSON would write.
func writeBody(w http.ResponseWriter, code int, enc func([]byte) ([]byte, error)) {
	bp := getBuf()
	defer putBuf(bp)
	b, err := enc((*bp)[:0])
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	*bp = append(b, '\n')
	respond(w, code, *bp)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	writeBody(w, code, func(b []byte) ([]byte, error) { return appendErrorBody(b, errorBody{Error: msg}), nil })
}

// maxRequestBody bounds a request body. The largest body the gateway needs
// is one op whose value fills a realnet frame: base64 makes the value 4/3 as
// long, and the slack holds the rest of the document.
const maxRequestBody = realnet.DefaultMaxFrame/3*4 + 64<<10

// readBody reads a request body of at most maxRequestBody bytes and hands
// it to decode. A longer body answers 413 and a body decode rejects 400,
// both with the JSON error envelope; either way readBody reports false.
func readBody(w http.ResponseWriter, r *http.Request, decode func([]byte) error) bool {
	bp := getBuf()
	defer putBuf(bp)
	body, err := readAll(http.MaxBytesReader(w, r.Body, maxRequestBody), (*bp)[:0])
	*bp = body
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		return false
	}
	if err == nil {
		err = decode(body)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad JSON: %v", err)
		return false
	}
	return true
}

// decodeJSON reads a request body into v with encoding/json (see readBody).
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	return readBody(w, r, func(body []byte) error {
		return json.NewDecoder(bytes.NewReader(body)).Decode(v)
	})
}

// handleRead serves GET /v1/read?key=K[&quorum=1].
func (s *Server) handleRead(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		writeErr(w, http.StatusBadRequest, "missing key parameter")
		return
	}
	var (
		b   []byte
		n   int64
		ver int64
		err error
	)
	quorum := r.URL.Query().Get("quorum") == "1"
	s.pinned(func() {
		if quorum {
			b, ver, err = s.session.QuorumReadBytes(key)
			if err == nil {
				// Integer records round-trip through the int field too.
				n, _, _ = s.session.QuorumReadInt(key)
			}
			return
		}
		b, ver, err = s.session.ReadBytes(key)
		if err == nil {
			n, _, _ = s.session.ReadInt(key)
		}
	})
	code, resp := http.StatusOK, ReadResponse{Key: key, Found: true, Bytes: b, Int: n, Version: ver}
	switch {
	case errors.Is(err, planet.ErrKeyNotFound):
		code, resp = http.StatusNotFound, ReadResponse{Key: key}
	case err != nil:
		writeErr(w, http.StatusServiceUnavailable, "read failed: %v", err)
		return
	}
	writeBody(w, code, func(b []byte) ([]byte, error) { return appendReadResponse(b, &resp), nil })
}

// handleSubmit serves POST /v1/txn[?wait=1[&waitms=N]]. A plain POST answers
// 202 with the transaction id as soon as commit processing has started;
// wait=1 holds the request until the final callback has run and answers 200
// with the full status, falling back to the same 202 when waitms expires
// first (the transaction keeps running and stays queryable by id).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "shutting down: not accepting new transactions")
		return
	}
	wait, bound, ok := parseWait(w, r)
	if !ok {
		return
	}
	var req SubmitRequest
	if !readBody(w, r, func(body []byte) error { return decodeSubmitRequest(body, &req) }) {
		return
	}
	if len(req.Ops) == 0 {
		writeErr(w, http.StatusBadRequest, "transaction has no operations")
		return
	}

	for _, op := range req.Ops {
		if op.Kind != "set" && op.Kind != "add" {
			writeErr(w, http.StatusBadRequest, "unknown op kind %q", op.Kind)
			return
		}
	}

	tr := &tracked{start: time.Now(), final: make(chan struct{})}
	opts := planet.CommitOptions{
		SpeculateAt: req.SpeculateAt,
		OnSpeculative: func(planet.Progress) {
			tr.mu.Lock()
			tr.speculated = true
			tr.mu.Unlock()
		},
		OnFinal: func(o txn.Outcome) {
			tr.mu.Lock()
			tr.outcome = &o
			tr.mu.Unlock()
			close(tr.final)
		},
	}
	if req.DeadlineMs > 0 {
		opts.Deadline = time.Duration(req.DeadlineMs) * time.Millisecond
		opts.OnDeadline = func(planet.Progress) {
			tr.mu.Lock()
			tr.deadlineHit = true
			tr.mu.Unlock()
		}
	}
	var h *planet.Handle
	var err error
	s.pinned(func() {
		tx := s.session.Begin()
		for _, op := range req.Ops {
			if op.Kind == "set" {
				tx.Set(op.Key, op.Value)
			} else {
				tx.Add(op.Key, op.Delta)
			}
		}
		h, err = tx.Commit(opts)
	})
	if err != nil {
		writeErr(w, http.StatusBadRequest, "commit: %v", err)
		return
	}
	tr.handle = h
	id := h.ID().String()

	s.mu.Lock()
	s.txns[id] = tr
	s.order = append(s.order, id)
	for len(s.order) > s.maxTxn {
		evict := s.order[0]
		s.order = s.order[1:]
		delete(s.txns, evict)
	}
	s.mu.Unlock()

	if wait {
		switch s.awaitFinal(r, tr, bound) {
		case waitResolved:
			writeStatus(w, s.statusOf(id, tr))
			return
		case waitClientGone:
			writeErr(w, http.StatusRequestTimeout, "client gave up")
			return
		}
	}
	writeBody(w, http.StatusAccepted, func(b []byte) ([]byte, error) {
		return appendSubmitResponse(b, SubmitResponse{Txn: id}), nil
	})
}

// waitResult is how a server-side wait ended.
type waitResult int

const (
	waitResolved   waitResult = iota // the final callback has run
	waitExpired                      // the waitms bound passed first
	waitClientGone                   // the request was abandoned
)

// parseWait reads the wait=1[&waitms=N] query shared by POST /v1/txn and
// GET /v1/txn/{id}. bound is zero when the wait is unbounded; a malformed
// waitms answers 400 and reports !ok.
func parseWait(w http.ResponseWriter, r *http.Request) (wait bool, bound time.Duration, ok bool) {
	if r.URL.RawQuery == "" {
		return false, 0, true
	}
	q := r.URL.Query()
	if q.Get("wait") != "1" {
		return false, 0, true
	}
	if raw := q.Get("waitms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 {
			writeErr(w, http.StatusBadRequest, "bad waitms %q", raw)
			return false, 0, false
		}
		bound = time.Duration(ms) * time.Millisecond
	}
	return true, bound, true
}

// awaitFinal blocks until tr's final callback has run, bound (when positive)
// expires, or the client abandons the request. The bound exists for
// transactions that can never resolve (coordinator's peers down): the caller
// gets a definitive answer instead of a hung request. The timer is real wall
// time on purpose — this goroutine belongs to net/http, not the DB's
// (possibly virtual) scheduler.
func (s *Server) awaitFinal(r *http.Request, tr *tracked, bound time.Duration) waitResult {
	select {
	case <-tr.final:
		return waitResolved // already decided: no timer to arm
	default:
	}
	var expired <-chan time.Time
	if bound > 0 {
		timer := time.NewTimer(bound)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case <-tr.final:
		return waitResolved
	case <-expired:
		if s.waitTimeouts != nil {
			s.waitTimeouts.Inc()
		}
		return waitExpired
	case <-r.Context().Done():
		return waitClientGone
	}
}

// handleStatus serves GET /v1/txn/{id}[?wait=1[&waitms=N]] and
// /v1/txn/{id}/trace.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/txn/")
	if rest, ok := strings.CutSuffix(id, "/trace"); ok {
		s.handleTrace(w, rest)
		return
	}
	s.mu.Lock()
	tr := s.txns[id]
	s.mu.Unlock()
	if tr == nil {
		writeErr(w, http.StatusNotFound, "unknown transaction %q", id)
		return
	}
	wait, bound, ok := parseWait(w, r)
	if !ok {
		return
	}
	if wait {
		switch s.awaitFinal(r, tr, bound) {
		case waitExpired:
			writeErr(w, http.StatusGatewayTimeout, "transaction %s not resolved within wait bound", id)
			return
		case waitClientGone:
			writeErr(w, http.StatusRequestTimeout, "client gave up")
			return
		}
	}
	writeStatus(w, s.statusOf(id, tr))
}

// writeStatus answers 200 with st.
func writeStatus(w http.ResponseWriter, st Status) {
	writeBody(w, http.StatusOK, func(b []byte) ([]byte, error) { return appendStatus(b, &st) })
}

// SetDraining switches the gateway into (or out of) drain mode: new
// transaction submissions are refused with 503 while reads and status
// queries keep working, so graceful shutdown can wait out the in-flight
// tail without admitting new work.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// statusOf snapshots a tracked transaction.
func (s *Server) statusOf(id string, tr *tracked) Status {
	var p planet.Progress
	s.pinned(func() { p = tr.handle.Progress() })
	tr.mu.Lock()
	defer tr.mu.Unlock()
	st := Status{
		Txn:          id,
		Stage:        p.Stage.String(),
		Likelihood:   p.Likelihood,
		Speculated:   tr.speculated,
		DeadlineHit:  tr.deadlineHit,
		VotesSeen:    p.VotesReceived,
		VotesOverall: p.VotesExpected,
	}
	if o := tr.outcome; o != nil {
		st.Done = true
		st.Committed = o.Committed
		st.Rejected = o.Rejected
		st.DurationMs = float64(o.Duration()) / float64(time.Millisecond)
		if o.Err != nil {
			st.Error = o.Err.Error()
		}
	}
	return st
}

// StatsResponse is the GET /v1/stats body. All counters are cumulative
// since the DB was opened.
type StatsResponse struct {
	// Submitted counts transactions accepted into commit processing
	// (admission rejections excluded).
	Submitted uint64
	// Committed and Aborted count final decisions.
	Committed uint64
	Aborted   uint64
	// Rejected counts admission-control refusals.
	Rejected uint64
	// Speculated counts transactions that reported a speculative commit
	// before their final decision.
	Speculated uint64
	// Apologies counts speculative commits later contradicted by an
	// abort — each one triggered the guaranteed apology callback.
	Apologies uint64
	// SpeculationAccuracy is the fraction of speculative commits that
	// the final decision confirmed: 1 - Apologies/Speculated, and 1.0
	// when nothing has speculated yet.
	SpeculationAccuracy float64
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	st := s.db.Stats()
	resp := StatsResponse{
		Submitted:  st.Submitted,
		Committed:  st.Committed,
		Aborted:    st.Aborted,
		Rejected:   st.Rejected,
		Speculated: st.Speculated,
		Apologies:  st.Apologies,
	}
	if s.reg != nil {
		// Prefer the registry series (the same sites increment both, but
		// the registry is the system of record for exposition).
		if v, ok := s.reg.Value("planet_txn_stage_total", obs.L("stage", "speculative")); ok {
			resp.Speculated = uint64(v)
		}
		if v, ok := s.reg.Value("planet_txn_apologies_total"); ok {
			resp.Apologies = uint64(v)
		}
	}
	resp.SpeculationAccuracy = 1
	if resp.Speculated > 0 {
		resp.SpeculationAccuracy = 1 - float64(resp.Apologies)/float64(resp.Speculated)
	}
	writeJSON(w, http.StatusOK, resp)
}

// TraceEvent is the wire form of one recorded lifecycle event.
type TraceEvent struct {
	// OffsetMs is the event time relative to submission.
	OffsetMs float64 `json:"offsetMs"`
	Kind     string  `json:"kind"`
	Key      string  `json:"key,omitempty"`
	Region   string  `json:"region,omitempty"`
	// Accept carries the event's verdict (vote accept, admission
	// verdict, option outcome, final commit).
	Accept     bool    `json:"accept"`
	Likelihood float64 `json:"likelihood,omitempty"`
	Note       string  `json:"note,omitempty"`
}

// SpanJSON is the wire form of one causal span. Parent links spans into one
// tree per transaction; spans recorded in other processes (replicas,
// masters) appear here once their reports reach this coordinator.
type SpanJSON struct {
	ID            uint64  `json:"id"`
	Parent        uint64  `json:"parent,omitempty"`
	Stage         string  `json:"stage"`
	Region        string  `json:"region,omitempty"`
	Note          string  `json:"note,omitempty"`
	StartUnixNano int64   `json:"startUnixNano"`
	DurationMs    float64 `json:"durationMs"`
}

// TraceResponse is the GET /v1/txn/{id}/trace body and the element type of
// GET /v1/traces.
type TraceResponse struct {
	Txn        string       `json:"txn"`
	Done       bool         `json:"done"`
	Outcome    string       `json:"outcome,omitempty"`
	Speculated bool         `json:"speculated"`
	Slow       bool         `json:"slow,omitempty"`
	DurationMs float64      `json:"durationMs"`
	Events     []TraceEvent `json:"events"`
	// Spans is the transaction's causal span tree (present only on
	// deployments with Config.Trace).
	Spans []SpanJSON `json:"spans,omitempty"`
}

// TracesResponse is the GET /v1/traces body.
type TracesResponse struct {
	Traces []TraceResponse `json:"traces"`
}

// traceJSON converts a recorded trace to its wire form. An unfinished
// trace's duration runs to now on the cluster clock.
func (s *Server) traceJSON(tr obs.Trace) TraceResponse {
	end := tr.End
	if !tr.Done {
		end = s.db.Cluster().Clock().Now()
	}
	resp := TraceResponse{
		Txn:        tr.ID.String(),
		Done:       tr.Done,
		Outcome:    tr.Outcome,
		Speculated: tr.Speculated,
		Slow:       tr.Slow,
		DurationMs: float64(end.Sub(tr.Start)) / float64(time.Millisecond),
		Events:     make([]TraceEvent, 0, len(tr.Events)),
	}
	for _, e := range tr.Events {
		resp.Events = append(resp.Events, TraceEvent{
			OffsetMs:   float64(e.At.Sub(tr.Start)) / float64(time.Millisecond),
			Kind:       e.Kind.String(),
			Key:        e.Key,
			Region:     e.Region,
			Accept:     e.Accept,
			Likelihood: e.Likelihood,
			Note:       e.Note,
		})
	}
	return resp
}

// spansJSON converts recorded spans to their wire form.
func spansJSON(spans []obs.Span) []SpanJSON {
	out := make([]SpanJSON, 0, len(spans))
	for _, sp := range spans {
		out = append(out, SpanJSON{
			ID:            sp.ID,
			Parent:        sp.Parent,
			Stage:         sp.Stage.String(),
			Region:        sp.Region,
			Note:          sp.Note,
			StartUnixNano: sp.Start.UnixNano(),
			DurationMs:    float64(sp.Duration()) / float64(time.Millisecond),
		})
	}
	return out
}

// handleTrace serves GET /v1/txn/{id}/trace (dispatched by handleStatus).
func (s *Server) handleTrace(w http.ResponseWriter, rawID string) {
	store := s.db.Spans()
	if store == nil {
		writeErr(w, http.StatusNotFound, "tracing is not enabled on this deployment")
		return
	}
	id, err := txn.ParseID(rawID)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad transaction id %q", rawID)
		return
	}
	// A transaction submitted elsewhere has spans here but no lifecycle (a
	// replica's replayed WAL span, say).
	tr, found := store.Trace(id)
	spans := store.Spans(id)
	if !found && len(spans) == 0 {
		writeErr(w, http.StatusNotFound, "no trace for %q (evicted or unknown)", rawID)
		return
	}
	resp := TraceResponse{Txn: id.String()}
	if found {
		resp = s.traceJSON(tr)
	}
	if len(spans) > 0 {
		resp.Spans = spansJSON(spans)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAttribution serves GET /v1/attribution[?format=table]: per-stage
// latency statistics aggregated from completed traces, ranked by variance
// contribution, with the dominant leaf stage named. format=table renders
// the deterministic fixed-width text table instead of JSON.
func (s *Server) handleAttribution(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	attr := s.db.Attribution()
	if attr == nil {
		writeErr(w, http.StatusNotFound, "attribution is not enabled on this deployment")
		return
	}
	snap := attr.Snapshot()
	if r.URL.Query().Get("format") == "table" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, snap.Table())
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleTraces serves GET /v1/traces?aborted=1&slow=1&limit=N.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	store := s.db.Spans()
	if store == nil {
		writeErr(w, http.StatusNotFound, "tracing is not enabled on this deployment")
		return
	}
	q := r.URL.Query()
	filter := obs.TraceFilter{
		AbortedOnly: q.Get("aborted") == "1",
		SlowOnly:    q.Get("slow") == "1",
		Limit:       50,
	}
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, "bad limit %q", raw)
			return
		}
		filter.Limit = n
	}
	resp := TracesResponse{Traces: make([]TraceResponse, 0, filter.Limit)}
	for _, tr := range store.Recent(filter) {
		resp.Traces = append(resp.Traces, s.traceJSON(tr))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves GET /v1/metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.reg == nil {
		writeErr(w, http.StatusNotFound, "metrics are not enabled on this deployment")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.reg.WritePrometheus(w)
}
