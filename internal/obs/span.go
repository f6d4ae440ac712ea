package obs

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"planet/internal/txn"
)

// Stage identifies one latency stage of the commit pipeline. The taxonomy
// decomposes a transaction's submit-to-notify latency into the hops a
// decision actually takes: local bookkeeping (submit, admit), the
// option-phase RPC out to the replicas, master arbitration on the classic
// path, the replica's WAL append, the vote's return leg, the coordinator's
// quorum wait, the decision broadcast, and the client notification.
type Stage uint8

const (
	// StageTotal spans the whole transaction, submit to finish. It is a
	// container: the other stages decompose it.
	StageTotal Stage = iota
	// StageSubmit covers local submission bookkeeping before the options
	// leave the coordinator's region.
	StageSubmit
	// StageAdmit covers prediction + admission control at submit.
	StageAdmit
	// StageOptionRPC is the network leg carrying an option proposal from
	// the coordinator to one replica (or master).
	StageOptionRPC
	// StageMasterArbitrate covers a master's classic-round work for one
	// option: phase 1 (if the key is fresh), sequencing, and the phase-2
	// round trip with its acceptors.
	StageMasterArbitrate
	// StageReplicaWAL covers a replica's write-ahead-log append (and
	// fsync, when the WAL is disk-backed) for a decision.
	StageReplicaWAL
	// StageVoteReturn is the network leg carrying a vote (or classic
	// result) back to the coordinator.
	StageVoteReturn
	// StageQuorumWait spans the coordinator's wait from option send-out to
	// decision. It is a container: option RPCs, arbitration, and vote
	// returns happen inside it.
	StageQuorumWait
	// StageDecideBroadcast is the network leg carrying the decision from
	// the coordinator to one replica.
	StageDecideBroadcast
	// StageClientNotify covers decision-to-application delivery (callback
	// dispatch and handle wakeup).
	StageClientNotify

	// NumStages bounds the enum; new stages go before it.
	NumStages
)

// String implements fmt.Stringer. These names are API surface: they appear
// in /v1/attribution, the -attr log line, and PROTOCOL.md.
func (s Stage) String() string {
	switch s {
	case StageTotal:
		return "total"
	case StageSubmit:
		return "submit"
	case StageAdmit:
		return "admit"
	case StageOptionRPC:
		return "option_rpc"
	case StageMasterArbitrate:
		return "master_arbitrate"
	case StageReplicaWAL:
		return "replica_wal"
	case StageVoteReturn:
		return "vote_return"
	case StageQuorumWait:
		return "quorum_wait"
	case StageDecideBroadcast:
		return "decide_broadcast"
	case StageClientNotify:
		return "client_notify"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// Leaf reports whether the stage is a leaf of the decomposition — a stage
// whose duration is not an aggregate of other stages. Dominant-variance
// ranking considers only leaves, so a container's (necessarily larger)
// variance cannot mask the hop actually responsible. Total contains
// everything; quorum_wait contains the option RPCs, arbitration, and vote
// returns; decide_broadcast brackets each replica's apply and contains its
// WAL append (and, sharing the propose leg's links, its transit variance
// would double-count option_rpc's verdict in the ranking).
func (s Stage) Leaf() bool {
	return s != StageTotal && s != StageQuorumWait && s != StageDecideBroadcast
}

// Span is one timed stage of one transaction, recorded wherever the stage
// ran — coordinator, master, or replica, possibly in different processes.
// Parent links spans into a causal tree: a span's parent is the span whose
// work caused it (the option RPC that carried the proposal, the root span
// that issued the decision).
type Span struct {
	Txn    txn.ID    `json:"txn"`
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Stage  Stage     `json:"-"`
	Region string    `json:"region,omitempty"`
	Note   string    `json:"note,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// Duration returns the span's elapsed time (clamped at zero: cross-process
// one-way legs can go slightly negative under clock skew).
func (sp Span) Duration() time.Duration {
	d := sp.End.Sub(sp.Start)
	if d < 0 {
		return 0
	}
	return d
}

// spanSeq hands out process-unique span ids; spanBase folds the pid into
// bits 42–57 so ids from different processes of one deployment never
// collide when their spans are stitched into one tree. The top six bits stay
// zero in every id NewSpanID returns: LegSpanID sets them.
var (
	spanSeq  atomic.Uint64
	spanBase = uint64(os.Getpid()&0xffff) << 42
)

// legShift places a LegSpanID's replica slot above every NewSpanID bit.
const legShift = 58

// NewSpanID returns a fresh span id, unique within the deployment.
func NewSpanID() uint64 { return spanBase | spanSeq.Add(1) }

// LegSpanID names the option-RPC leg that carried the proposal of the
// transaction whose root span is root to the replica in slot (1–63, its
// position among the deployment's replicas plus one). The replica stamps
// it on its vote, the coordinator records the leg under it, and the
// replica derives it again from the decide, so no process keeps a leg id
// between the proposal and the decision. It never equals an id NewSpanID
// returns, nor another slot's leg of the same root.
func LegSpanID(root uint64, slot int) uint64 { return root | uint64(slot)<<legShift }

// TraceLog is the log policy a store applies to each trace as it finishes.
type TraceLog struct {
	// SlowThreshold marks (and logs) transactions at least this slow;
	// zero disables.
	SlowThreshold time.Duration
	// LogAborted also logs every aborted transaction's trace.
	LogAborted bool
	// Logf receives slow/aborted trace logs (e.g. log.Printf). Nil
	// disables logging but still marks Trace.Slow.
	Logf func(format string, args ...any)
}

// SpanStoreConfig parameterizes NewSpanStore. The zero value retains 512
// transactions and logs nothing.
type SpanStoreConfig struct {
	// Capacity bounds the number of transactions whose spans and lifecycle
	// are retained (FIFO eviction by first record). Default 512.
	Capacity int
	// Log is applied to every finished trace.
	Log TraceLog
}

// defaultCapacity is SpanStoreConfig.Capacity's default.
const defaultCapacity = 512

// txnRecord is one transaction's entry in a store: its spans and, when the
// transaction was submitted against this store (tr.ID set), its lifecycle.
// A record evicted for a newer transaction is reused, its span and event
// storage with it, so only the first capacity transactions grow storage.
type txnRecord struct {
	id    txn.ID
	spans []Span
	tr    Trace
}

// SpanStore is the per-transaction trace record of one home region: each
// recent transaction's spans plus its lifecycle events and outcome, keyed
// by transaction id. Every added span folds into a per-stage Attribution,
// under the store's one lock; lifecycle events never do. Records are
// reused, so readers get copies and share no storage with the store. All
// methods are safe on a nil receiver (no-ops), giving instrumented code a
// zero-cost disabled path.
type SpanStore struct {
	mu     sync.Mutex
	cap    int
	log    TraceLog
	txns   map[txn.ID]*txnRecord
	ring   []*txnRecord // FIFO eviction ring, ring[next] oldest once full
	next   int
	attr   Attribution // guarded by mu
	faults *FaultLog   // the deployment's, shared by every shard (nil standalone)
}

// NewSpanStore builds a span store from cfg.
func NewSpanStore(cfg SpanStoreConfig) *SpanStore {
	if cfg.Capacity <= 0 {
		cfg.Capacity = defaultCapacity
	}
	s := &SpanStore{
		cap:  cfg.Capacity,
		log:  cfg.Log,
		txns: make(map[txn.ID]*txnRecord),
	}
	s.attr.mu = &s.mu
	return s
}

// Attribution returns the store's aggregation engine (nil on a nil store).
func (s *SpanStore) Attribution() *Attribution {
	if s == nil {
		return nil
	}
	return &s.attr
}

// Add records one span.
func (s *SpanStore) Add(sp Span) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.addLocked(sp)
	s.mu.Unlock()
}

// AddBatch records several spans under one lock acquisition.
func (s *SpanStore) AddBatch(sps []Span) {
	if s == nil || len(sps) == 0 {
		return
	}
	s.mu.Lock()
	for _, sp := range sps {
		s.addLocked(sp)
	}
	s.mu.Unlock()
}

// addLocked appends sp to its transaction's record and folds it into the
// attribution. Caller holds s.mu.
func (s *SpanStore) addLocked(sp Span) {
	rec := s.recordLocked(sp.Txn)
	rec.spans = append(rec.spans, sp)
	s.attr.observeLocked(sp.Stage, sp.Duration())
}

// recordLocked returns id's entry, creating it if absent: a new record
// while the store is below capacity, else the oldest one, emptied. Caller
// holds s.mu.
func (s *SpanStore) recordLocked(id txn.ID) *txnRecord {
	if rec := s.txns[id]; rec != nil {
		return rec
	}
	var rec *txnRecord
	if len(s.ring) < s.cap {
		rec = new(txnRecord)
		s.ring = append(s.ring, rec)
	} else {
		rec = s.ring[s.next]
		s.next = (s.next + 1) % s.cap
		delete(s.txns, rec.id)
		rec.spans = rec.spans[:0]
		rec.tr = Trace{Events: rec.tr.Events[:0]}
	}
	rec.id = id
	s.txns[id] = rec
	return rec
}

// Begin opens id's lifecycle, submitted at at, with its first events.
func (s *SpanStore) Begin(id txn.ID, at time.Time, evs ...Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	rec := s.recordLocked(id)
	rec.tr = Trace{ID: id, Start: at, Events: append(rec.tr.Events[:0], evs...)}
	s.mu.Unlock()
}

// Record appends events, stamped by the caller, to id's lifecycle under one
// lock acquisition. Ids never begun here, evicted, or already finished are
// ignored.
func (s *SpanStore) Record(id txn.ID, evs ...Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if rec := s.txns[id]; rec != nil && rec.tr.ID != 0 && !rec.tr.Done {
		rec.tr.Events = append(rec.tr.Events, evs...)
	}
	s.mu.Unlock()
}

// Finish appends id's last events, seals its lifecycle with its outcome,
// decided at at, and applies the slow/aborted log policy.
func (s *SpanStore) Finish(id txn.ID, at time.Time, outcome string, speculated bool, evs ...Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	rec := s.txns[id]
	if rec == nil || rec.tr.ID == 0 || rec.tr.Done {
		s.mu.Unlock()
		return
	}
	tr := &rec.tr
	tr.Events = append(tr.Events, evs...)
	tr.Done, tr.End, tr.Outcome, tr.Speculated = true, at, outcome, speculated
	tr.Slow = s.log.SlowThreshold > 0 && at.Sub(tr.Start) >= s.log.SlowThreshold
	logged := s.log.Logf != nil && (tr.Slow || s.log.LogAborted && outcome == "aborted")
	var done Trace
	if logged {
		done = tr.clone()
	}
	s.mu.Unlock()

	if !logged {
		return
	}
	if done.Slow {
		s.log.Logf("obs: slow transaction: %s", s.faults.attach(done))
	} else {
		s.log.Logf("obs: aborted transaction: %s", s.faults.attach(done))
	}
}

// trace returns a copy of id's lifecycle, if it began here.
func (s *SpanStore) trace(id txn.ID) (Trace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec := s.txns[id]; rec != nil && rec.tr.ID != 0 {
		return rec.tr.clone(), true
	}
	return Trace{}, false
}

// finished appends copies of the store's finished traces matching f to
// out, oldest entry first.
func (s *SpanStore) finished(out []Trace, f TraceFilter) []Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.ring)
	for i := range s.ring {
		tr := &s.ring[(s.next+i)%n].tr
		if tr.Done && (!f.AbortedOnly || tr.Outcome == "aborted") && (!f.SlowOnly || tr.Slow) {
			out = append(out, tr.clone())
		}
	}
	return out
}

// appendSpans appends id's recorded spans to out.
func (s *SpanStore) appendSpans(out []Span, id txn.ID) []Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec := s.txns[id]; rec != nil && len(rec.spans) > 0 {
		out = append(out, rec.spans...)
	}
	return out
}

// FirstSpan returns id's first recorded span of stage st. A coordinator
// that has let go of a transaction dates a leg it learns of late from it.
func (s *SpanStore) FirstSpan(id txn.ID, st Stage) (Span, bool) {
	if s == nil {
		return Span{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec := s.txns[id]; rec != nil {
		for _, sp := range rec.spans {
			if sp.Stage == st {
				return sp, true
			}
		}
	}
	return Span{}, false
}
