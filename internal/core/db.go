package planet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"planet/internal/cluster"
	"planet/internal/mdcc"
	"planet/internal/metrics"
	"planet/internal/obs"
	"planet/internal/predictor"
	"planet/internal/simnet"
	"planet/internal/txn"
	"planet/internal/vclock"
)

// Errors surfaced through transaction outcomes.
var (
	// ErrAdmission marks a transaction rejected by admission control.
	ErrAdmission = errors.New("planet: rejected by admission control")
	// ErrKeyNotFound is returned by reads of unknown keys.
	ErrKeyNotFound = errors.New("planet: key not found")
)

// AdmissionPolicy configures likelihood-based admission control.
// The zero value admits everything.
type AdmissionPolicy struct {
	// MinLikelihood rejects transactions whose predicted commit
	// likelihood at submission is below this value.
	MinLikelihood float64
	// MaxInFlight, when positive, bounds concurrently executing
	// transactions per region; excess submissions are rejected.
	MaxInFlight int
	// ProbeFraction admits this fraction of below-threshold transactions
	// anyway, keeping the predictor's contention statistics fresh: if a
	// hot record cools down, probes discover it without waiting for the
	// statistics to decay.
	ProbeFraction float64
}

// enabled reports whether the policy can reject anything.
func (a AdmissionPolicy) enabled() bool {
	return a.MinLikelihood > 0 || a.MaxInFlight > 0
}

// Config parameterizes Open.
type Config struct {
	// Cluster is the deployment to run on. Required.
	Cluster *cluster.Cluster
	// Mode selects the commit path (fast with classic fallback, or
	// classic). Defaults to ModeFast.
	Mode mdcc.Mode
	// Admission is the admission-control policy (zero = admit all).
	Admission AdmissionPolicy
	// Adaptive, when enabled, layers a per-region feedback controller over
	// Admission: each epoch it re-derives the likelihood threshold and
	// in-flight bound from observed goodput, abort rate, and commit-latency
	// SLO compliance (see AdaptiveAdmission).
	Adaptive AdaptiveAdmission
	// DisableConflictTerm drops contention statistics from the
	// likelihood model (ablation A2).
	DisableConflictTerm bool
	// ConflictHalfLife overrides the contention-decay half-life
	// (emulator time).
	ConflictHalfLife time.Duration
	// Calibrate, when true, records (likelihood, outcome) pairs into a
	// calibration table retrievable via DB.Calibration.
	Calibrate bool
	// Registry, when non-nil, receives protocol metrics from every layer
	// (stage counters, vote latencies, simnet traffic) for Prometheus
	// exposition.
	Registry *obs.Registry
	// Trace enables per-transaction tracing: every commit gets a root span
	// and a lifecycle event list in its home region's trace store, protocol
	// messages carry trace context, and spans recorded at replicas and
	// masters flow back to the coordinator's store, where they stitch into
	// one causal tree per transaction and feed the attribution engine.
	Trace bool
	// TraceCapacity bounds the transactions each region's trace store
	// retains, spans and lifecycle alike (default 512, FIFO eviction), and
	// the faults the deployment's fault log keeps. Attribution statistics
	// survive eviction.
	TraceCapacity int
	// TraceLog marks and logs slow and aborted transactions' traces as
	// they finish (requires Trace).
	TraceLog obs.TraceLog
	// AttributionFeed feeds the attribution engine's per-stage EWMA and
	// jitter into the likelihood predictors: the predictor discounts
	// outstanding votes by whether the learned option-RPC + vote-return cost
	// still fits what is left of the cluster's commit timeout. Requires
	// Trace.
	AttributionFeed bool
	// Health configures per-region degradation tracking; degraded regions
	// shed speculation. The zero value disables tracking.
	Health HealthPolicy
}

// Stats aggregates transaction outcomes across the DB.
type Stats struct {
	Submitted  uint64
	Committed  uint64
	Aborted    uint64
	Rejected   uint64
	Speculated uint64
	Apologies  uint64
}

// regionRT is a region's private runtime: its transaction-ID namespace and
// its RNG for jitter/probe draws. Keeping both region-local means one
// region's traffic never shifts another region's IDs, backoff delays, or
// admission probes. Only retries and admission probes draw from the RNG, so
// it is built on the first draw.
type regionRT struct {
	ids  *txn.IDSpace
	mu   sync.Mutex
	seed int64
	rng  *rand.Rand // nil until the first draw
}

// draw returns the next Float64 of the region's stream. Caller holds rt.mu.
func (rt *regionRT) draw() float64 {
	if rt.rng == nil {
		rt.rng = rand.New(rand.NewSource(rt.seed))
	}
	return rt.rng.Float64()
}

// DB is a PLANET database handle over a cluster. Open one per deployment,
// then create per-region Sessions for clients.
type DB struct {
	cfg   Config
	clk   vclock.Clock
	rts   map[simnet.Region]*regionRT
	preds map[simnet.Region]*predictor.Predictor
	calib *metrics.Calibration
	inst  *dbInstruments
	spans *obs.SpanStores     // nil unless Config.Trace
	attr  *obs.AttributionSet // nil unless Config.Trace

	inFlight map[simnet.Region]*atomic.Int64
	health   map[simnet.Region]*regionHealth // nil entries when disabled
	adm      map[simnet.Region]*admissionCtl // nil unless Config.Adaptive.Enabled

	submitted  atomic.Uint64
	committed  atomic.Uint64
	aborted    atomic.Uint64
	rejected   atomic.Uint64
	speculated atomic.Uint64
	apologies  atomic.Uint64
	specShed   atomic.Uint64
}

// Open wires a DB over cfg.Cluster.
func Open(cfg Config) (*DB, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("planet: Config.Cluster is required")
	}
	regionList := cfg.Cluster.Regions()
	clk := cfg.Cluster.Clock()
	db := &DB{
		cfg:      cfg,
		clk:      clk,
		rts:      make(map[simnet.Region]*regionRT, len(regionList)),
		preds:    make(map[simnet.Region]*predictor.Predictor, len(regionList)),
		inFlight: make(map[simnet.Region]*atomic.Int64, len(regionList)),
		health:   make(map[simnet.Region]*regionHealth, len(regionList)),
	}
	for i, r := range regionList {
		db.rts[r] = &regionRT{ids: txn.NewIDSpace(i), seed: 1 + int64(i)}
	}
	if cfg.Health.enabled() {
		if cfg.Health.Window <= 0 {
			cfg.Health.Window = defaultHealthWindow
		}
		if cfg.Health.MinSamples <= 0 {
			cfg.Health.MinSamples = defaultHealthMinSamples
		}
		db.cfg.Health = cfg.Health
		for _, r := range regionList {
			db.health[r] = newRegionHealth(cfg.Health)
		}
	}
	if cfg.Calibrate {
		db.calib = metrics.NewCalibration(10)
	}
	if cfg.Trace {
		names := make([]string, len(regionList))
		for i, r := range regionList {
			names[i] = string(r)
		}
		// One span shard per region: every protocol actor records into (or
		// flushes to) its own region's shard — remote actors' spans arrive
		// as spanReportMsg and land at the transaction's home coordinator.
		db.spans = obs.NewSpanStores(obs.SpanStoreConfig{Capacity: cfg.TraceCapacity, Log: cfg.TraceLog}, names)
		db.attr = db.spans.Attribution()
		for _, r := range regionList {
			if coord := cfg.Cluster.Coordinator(r); coord != nil {
				coord.SetSpans(db.spans.For(string(r)))
			}
			if rep := cfg.Cluster.Replica(r); rep != nil {
				rep.SetSpans(db.spans.For(string(r)))
			}
		}
	}
	for _, r := range regionList {
		// The feed is the region's own shard: a predictor only ever learns
		// from spans its own coordinator recorded.
		var feed predictor.StageFeed
		if cfg.AttributionFeed && db.spans != nil {
			feed = db.spans.For(string(r)).Attribution()
		}
		db.preds[r] = predictor.New(predictor.Config{
			Regions:          regionList,
			Clock:            clk,
			FastQuorum:       mdcc.FastQuorum(len(regionList)),
			ConflictHalfLife: cfg.ConflictHalfLife,
			UseConflicts:     !cfg.DisableConflictTerm,
			UseLatency:       true,
			StageFeed:        feed,
			CommitTimeout:    cfg.Cluster.CommitTimeout(),
		})
		db.inFlight[r] = &atomic.Int64{}
	}
	if cfg.Adaptive.Enabled {
		db.adm = make(map[simnet.Region]*admissionCtl, len(regionList))
		for _, r := range regionList {
			db.adm[r] = newAdmissionCtl(clk, cfg.Adaptive, cfg.Admission)
		}
	}
	if reg := cfg.Registry; reg != nil {
		db.inst = newDBInstruments(reg, regionList, db.inFlight)
		// Instrument the layers below: simnet traffic and per-region
		// coordinator protocol activity all land in the same registry. In a
		// realnet deployment there is no simnet network and only the local
		// region has a coordinator, hence the nil guards.
		if cfg.Cluster.Net != nil {
			cfg.Cluster.Net.SetObserver(obs.NewNetInstruments(reg))
		}
		for _, r := range regionList {
			if coord := cfg.Cluster.Coordinator(r); coord != nil {
				coord.SetObserver(obs.NewCoordInstruments(reg, r))
			}
		}
		for _, r := range regionList {
			if c := db.adm[r]; c != nil {
				lbl := obs.L("region", string(r))
				reg.GaugeFunc("planet_admission_min_likelihood",
					"Adaptive admission: current likelihood threshold.",
					func() float64 { return math.Float64frombits(c.minLikelihood.Load()) }, lbl)
				reg.GaugeFunc("planet_admission_max_inflight",
					"Adaptive admission: current AIMD in-flight window.",
					func() float64 { return float64(c.maxInFlight.Load()) }, lbl)
				reg.GaugeFunc("planet_admission_spec_floor",
					"Adaptive admission: current speculation floor.",
					c.specFloorVal, lbl)
			}
		}
		for _, r := range regionList {
			if hr := db.health[r]; hr != nil {
				reg.GaugeFunc("planet_region_degraded",
					"Whether the region's recent timeout rate crossed the health threshold (1 = degraded).",
					func() float64 {
						if hr.degraded() {
							return 1
						}
						return 0
					}, obs.L("region", string(r)))
			}
		}
	}
	// Start the admission controllers last: their first epoch tick must not
	// race DB construction on a real-time clock.
	for _, r := range regionList {
		if c := db.adm[r]; c != nil {
			c.start()
		}
	}
	return db, nil
}

// admFor returns region r's adaptive admission controller, or nil when the
// controller is disabled.
func (db *DB) admFor(r simnet.Region) *admissionCtl { return db.adm[r] }

// AdmissionState snapshots region r's adaptive admission controller. The
// zero value is returned when the controller is disabled.
func (db *DB) AdmissionState(r simnet.Region) AdmissionState {
	if c := db.adm[r]; c != nil {
		return c.state()
	}
	return AdmissionState{}
}

// Cluster returns the underlying deployment.
func (db *DB) Cluster() *cluster.Cluster { return db.cfg.Cluster }

// Predictor returns the region's likelihood predictor (harness, tests).
func (db *DB) Predictor(r simnet.Region) *predictor.Predictor { return db.preds[r] }

// Calibration returns the calibration table (nil unless Config.Calibrate).
func (db *DB) Calibration() *metrics.Calibration { return db.calib }

// Registry returns the metrics registry (nil unless configured).
func (db *DB) Registry() *obs.Registry { return db.cfg.Registry }

// Spans returns the trace store — spans, lifecycles and the fault log,
// sharded by home region (nil unless Config.Trace).
func (db *DB) Spans() *obs.SpanStores { return db.spans }

// Attribution returns the merged per-stage latency attribution view over
// every region's engine (nil unless Config.Trace).
func (db *DB) Attribution() *obs.AttributionSet { return db.attr }

// Stats snapshots the outcome counters.
func (db *DB) Stats() Stats {
	return Stats{
		Submitted:  db.submitted.Load(),
		Committed:  db.committed.Load(),
		Aborted:    db.aborted.Load(),
		Rejected:   db.rejected.Load(),
		Speculated: db.speculated.Load(),
		Apologies:  db.apologies.Load(),
	}
}

// RegionDegraded reports whether the region currently sheds speculation:
// either its health tracker judges it degraded (always false when
// Config.Health is disabled) or its coordinator cannot reach a fast quorum
// (a node whose transport reports peers down or cut), in which case every
// fast submit goes classic anyway.
func (db *DB) RegionDegraded(r simnet.Region) bool {
	if coord := db.cfg.Cluster.Coordinator(r); coord != nil && !coord.FastQuorumReachable() {
		return true
	}
	return db.health[r].degraded()
}

// InFlight returns the number of transactions currently executing across
// all regions. Graceful shutdown drains on it.
func (db *DB) InFlight() int64 {
	var n int64
	for _, c := range db.inFlight {
		n += c.Load()
	}
	return n
}

// rt returns the region's runtime (nil for unknown regions).
func (db *DB) rt(r simnet.Region) *regionRT { return db.rts[r] }

// jitter draws a multiplier in [0.5, 1.5) for retry backoff, from the
// region's private stream.
func (db *DB) jitter(r simnet.Region) float64 {
	rt := db.rts[r]
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return 0.5 + rt.draw()
}

// probe draws whether a below-threshold transaction is admitted anyway.
func (db *DB) probe(r simnet.Region, fraction float64) bool {
	if fraction <= 0 {
		return false
	}
	rt := db.rts[r]
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.draw() < fraction
}

// Session returns a client handle bound to a region: reads are served by
// that region's replica and commits are coordinated there, exactly like an
// application server co-located with a datacenter.
func (db *DB) Session(region simnet.Region) (*Session, error) {
	coord := db.cfg.Cluster.Coordinator(region)
	replica := db.cfg.Cluster.Replica(region)
	if coord == nil || replica == nil {
		return nil, fmt.Errorf("planet: unknown region %q", region)
	}
	return &Session{
		db: db, region: region, coord: coord, replica: replica,
		pred: db.preds[region],
	}, nil
}

// Session is a per-region client. Under a virtual clock, spawn its
// goroutines with Clock().Go or vclock.Group.Go, and start a body that never
// blocks with vclock.Group.Start.
type Session struct {
	db      *DB
	region  simnet.Region
	coord   *mdcc.Coordinator
	replica *mdcc.Replica
	pred    *predictor.Predictor
}

// Clock returns the DB's time source.
func (s *Session) Clock() vclock.Clock { return s.db.clk }

// Region returns the session's home region.
func (s *Session) Region() simnet.Region { return s.region }

// ReadBytes returns the committed byte value and version of key at the
// local replica. The replica hands out immutable views; the copy here keeps
// the public contract that callers own (and may scribble on) the result.
func (s *Session) ReadBytes(key string) ([]byte, int64, error) {
	v, ok := s.replica.ReadLocal(key)
	if !ok {
		return nil, 0, fmt.Errorf("planet: read %q: %w", key, ErrKeyNotFound)
	}
	return append([]byte(nil), v.Bytes...), v.Version, nil
}

// ReadInt returns the committed integer value and version of key at the
// local replica.
func (s *Session) ReadInt(key string) (int64, int64, error) {
	v, ok := s.replica.ReadLocal(key)
	if !ok {
		return 0, 0, fmt.Errorf("planet: read %q: %w", key, ErrKeyNotFound)
	}
	return v.Int, v.Version, nil
}

// quorumReadTimeout is the WAN-time budget for a quorum read.
const quorumReadTimeout = 5 * time.Second

// QuorumReadBytes reads key from a majority of replicas and returns the
// freshest committed bytes. One wide-area round trip, but unlike the local
// ReadBytes it observes every write committed and propagated before the
// read began.
func (s *Session) QuorumReadBytes(key string) ([]byte, int64, error) {
	v, found, err := s.coord.QuorumRead(key, s.db.cfg.Cluster.ScaleDuration(quorumReadTimeout))
	if err != nil {
		return nil, 0, err
	}
	if !found {
		return nil, 0, fmt.Errorf("planet: quorum read %q: %w", key, ErrKeyNotFound)
	}
	return append([]byte(nil), v.Bytes...), v.Version, nil
}

// QuorumReadInt is QuorumReadBytes for integer records.
func (s *Session) QuorumReadInt(key string) (int64, int64, error) {
	v, found, err := s.coord.QuorumRead(key, s.db.cfg.Cluster.ScaleDuration(quorumReadTimeout))
	if err != nil {
		return 0, 0, err
	}
	if !found {
		return 0, 0, fmt.Errorf("planet: quorum read %q: %w", key, ErrKeyNotFound)
	}
	return v.Int, v.Version, nil
}

// Begin starts a transaction.
func (s *Session) Begin() *Txn {
	return &Txn{session: s}
}
