package mdcc

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"planet/internal/obs"
	"planet/internal/simnet"
	"planet/internal/txn"
)

// Mode selects the proposal path a coordinator tries first.
type Mode uint8

const (
	// ModeFast proposes directly to all replicas (Fast Paxos), falling
	// back to the classic path on collision.
	ModeFast Mode = iota
	// ModeClassic routes every option through the record master.
	ModeClassic
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeClassic {
		return "classic"
	}
	return "fast"
}

// ClassicQuorum returns the majority quorum for n replicas.
func ClassicQuorum(n int) int { return n/2 + 1 }

// FastQuorum returns the Fast Paxos quorum ⌈3n/4⌉ for n replicas.
func FastQuorum(n int) int { return (3*n + 3) / 4 }

// recoveryThreshold is the minimum number of phase-1b appearances, within a
// classic quorum, at which a pending option may have been (or may become)
// fast-chosen and therefore must be re-proposed: classicQ - (n - fastQ).
func recoveryThreshold(n int) int { return ClassicQuorum(n) - (n - FastQuorum(n)) }

// RejectReason explains why a replica or master refused an option.
type RejectReason uint8

const (
	// ReasonNone marks an accept vote.
	ReasonNone RejectReason = iota
	// ReasonVersion: the record's committed version moved past the
	// transaction's read version. Fatal; retrying cannot help.
	ReasonVersion
	// ReasonPending: a conflicting option from another transaction is
	// pending. Transient; classic fallback may still succeed.
	ReasonPending
	// ReasonBound: a commutative delta would violate the record's
	// integrity bounds. Fatal under current committed+pending state.
	ReasonBound
	// ReasonClassicOwned: the key's promised ballot exceeds the fast
	// ballot, so fast proposals are refused. Retry via classic.
	ReasonClassicOwned
	// ReasonDecided: the transaction was already decided when the
	// proposal arrived (message reordering).
	ReasonDecided
	// ReasonBallot: a classic-path message carried a stale ballot.
	ReasonBallot
	// ReasonNotMaster: the replica a classic proposal was routed to does
	// not hold the key's master lease. Transient; the coordinator
	// re-resolves the master and retries.
	ReasonNotMaster
)

var reasonNames = [...]string{"accept", "version-conflict", "pending-conflict", "bound-violation",
	"classic-owned", "already-decided", "stale-ballot", "not-master"}

// String implements fmt.Stringer.
func (r RejectReason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Fatal reports whether a rejection for this reason dooms the transaction
// (no retry path can change the outcome).
func (r RejectReason) Fatal() bool {
	return r == ReasonVersion || r == ReasonBound
}

// Errors surfaced through transaction outcomes.
var (
	// ErrConflict reports a write-write conflict (version or pending).
	ErrConflict = errors.New("mdcc: write conflict")
	// ErrBound reports an integrity-bound (demarcation) violation.
	ErrBound = errors.New("mdcc: integrity bound violated")
	// ErrTimeout reports that the coordinator gave up waiting.
	ErrTimeout = errors.New("mdcc: commit timed out")
	// ErrAmbiguous reports that fast and classic attempts both failed to
	// reach a quorum.
	ErrAmbiguous = errors.New("mdcc: could not reach quorum")
	// ErrCrashed reports that the transaction's coordinator crashed before
	// deciding; from the client's side the connection died mid-commit.
	// No decision was broadcast, so the transaction can never commit.
	ErrCrashed = errors.New("mdcc: coordinator crashed")
)

// Value is what a read returns.
type Value struct {
	Bytes   []byte
	Int     int64
	IsInt   bool
	Version int64
}

// ProgressEvent is the coordinator's running commentary on a transaction,
// consumed by the PLANET layer to drive callbacks and likelihood updates.
type ProgressEvent struct {
	Txn  txn.ID
	Kind ProgressKind
	// Key and Region identify the vote for KindVote events.
	Key    string
	Region simnet.Region
	Accept bool
	Reason RejectReason
	// Elapsed is time since submission.
	Elapsed time.Duration
}

// ProgressKind enumerates coordinator progress events.
type ProgressKind uint8

const (
	// KindSubmitted: commit processing started (options sent).
	KindSubmitted ProgressKind = iota
	// KindVote: one replica voted on one option.
	KindVote
	// KindOptionLearned: one option reached a definitive accept/reject.
	KindOptionLearned
	// KindFallback: an option fell back from fast to classic.
	KindFallback
	// KindDecided: the transaction reached its final decision.
	KindDecided
)

var kindNames = [...]string{"submitted", "vote", "option-learned", "fallback", "decided"}

// String implements fmt.Stringer.
func (k ProgressKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ProgressSink receives progress events and the final decision for one
// transaction. Implementations must be safe for concurrent use and must not
// block: events are delivered from network and timer goroutines, as outputs
// of the coordinator's step, after its lock is released. One step's events
// arrive in order; on a live node, events of steps that run on different
// goroutines can interleave.
type ProgressSink interface {
	Progress(ProgressEvent)
	Decided(id txn.ID, committed bool, err error)
}

// MasterFor deterministically assigns a key's master region by hashing the
// key over the region list.
func MasterFor(key string, regions []simnet.Region) simnet.Region {
	h := fnv.New32a()
	h.Write([]byte(key))
	return regions[int(h.Sum32())%len(regions)]
}

// --- wire messages (simnet payloads) ---

// TraceCtx is the causal trace context piggybacked on protocol messages so
// spans recorded in different processes stitch into one tree. Span is the
// sender-side span the receiver's spans should parent to; SentUnixNano is
// the sender's clock at send time, letting the receiver time the network
// leg. The zero value means "not traced" and encodes to nothing on the
// wire (see wire.go), so untraced frames are byte-identical to the
// pre-trace protocol and old frames still decode.
type TraceCtx struct {
	Span         uint64
	SentUnixNano int64
}

type proposeMsg struct {
	Txn     txn.ID
	Coord   simnet.Addr
	Options []txn.Op
	TC      TraceCtx
}

type phase1aMsg struct {
	Key    string
	Ballot uint64
	Master simnet.Addr
	// Epoch is the master's lease epoch for the key's keyspace (0 when
	// leases are off). Acceptors fence messages whose epoch is older than
	// the lease they granted. On the wire it rides as an optional trailing
	// field, so pre-lease frames still decode.
	Epoch uint64
}

type phase1bMsg struct {
	Key     string
	Ballot  uint64
	OK      bool
	Pending []pendingSnapshot
	Region  simnet.Region
}

// pendingSnapshot is a replica's view of one pending option, reported
// during phase 1.
type pendingSnapshot struct {
	Txn    txn.ID
	Option txn.Op
	Ballot uint64
}

type decideMsg struct {
	Txn     txn.ID
	Commit  bool
	Options []txn.Op
	TC      TraceCtx
	// Coord is the deciding coordinator, carried only when traced (it
	// rides in the same optional trailing wire group as TC): the replica
	// learns from it where its decide-time spans go, keeping nothing from
	// the proposal.
	Coord simnet.Addr
}

// --- batched wire messages ---
//
// The batch forms carry everything a handler produces for one destination in
// a single network message: one loss draw, one sampled delay, one delivery.
// The receiver processes each item on its own, in batch order, in one step.

// optionVote is one option's verdict inside a voteBatchMsg.
type optionVote struct {
	Key    string
	Accept bool
	Reason RejectReason
}

// voteBatchMsg coalesces a replica's votes on every option of one fast-path
// proposal. Votes are ordered as the options appeared in the proposal, i.e.
// submission order.
type voteBatchMsg struct {
	Txn    txn.ID
	Region simnet.Region
	Votes  []optionVote
	TC     TraceCtx
}

// classicProposeBatchMsg carries all of one transaction's classic-path
// options that route to the same master.
type classicProposeBatchMsg struct {
	Txn     txn.ID
	Coord   simnet.Addr
	Options []txn.Op
	TC      TraceCtx
}

// optionResult is one option's verdict inside a classicResultBatchMsg.
type optionResult struct {
	Key      string
	Accepted bool
	Reason   RejectReason
}

// classicResultBatchMsg coalesces a master's same-instant verdicts for
// several options of one transaction.
type classicResultBatchMsg struct {
	Txn     txn.ID
	Results []optionResult
	TC      TraceCtx
}

// spanReportMsg ships spans recorded at a replica or master in another
// region back to the transaction's coordinator, which owns the stitched
// causal tree: a replica's decide_broadcast and replica_wal spans, a
// master's option-RPC leg and arbitrations. Spans travel after the fact
// (with the result, or after the decide) so the hot path never blocks on
// trace bookkeeping.
type spanReportMsg struct {
	Txn   txn.ID
	Spans []obs.Span
}

// phase2aItem is one option's phase-2a proposal inside a batch. Ballots are
// per-item because they are per-key.
type phase2aItem struct {
	Txn    txn.ID
	Key    string
	Ballot uint64
	Option txn.Op
}

// phase2aBatchMsg groups a master's same-instant phase-2a proposals to one
// peer. Epoch is the master's lease epoch for every item in the batch —
// flush only folds same-epoch proposals together (items of one batch always
// share the master's lease for their keyspace at stamping time).
type phase2aBatchMsg struct {
	Master simnet.Addr
	Items  []phase2aItem
	Epoch  uint64
}

// phase2bItem is one option's phase-2b verdict inside a batch.
type phase2bItem struct {
	Txn    txn.ID
	Key    string
	Ballot uint64
	Accept bool
}

// phase2bBatchMsg coalesces an acceptor's phase-2b replies to one master.
type phase2bBatchMsg struct {
	Region simnet.Region
	Items  []phase2bItem
}

// --- staged per-option values ---
//
// The per-option values a master queues and stages inside its step; flush
// folds staged results and phase-2a proposals into the batch forms above,
// so none reaches a transport and the wire codec has no case for them.

// classicProposeMsg is one option of a classicProposeBatchMsg as the master
// queues and sequences it.
type classicProposeMsg struct {
	Txn    txn.ID
	Coord  simnet.Addr
	Option txn.Op
	TC     TraceCtx
}

// classicResultMsg is a master's staged verdict on one option, folded into
// a classicResultBatchMsg to its coordinator.
type classicResultMsg struct {
	Txn      txn.ID
	Key      string
	Accepted bool
	Reason   RejectReason
	TC       TraceCtx
}

// phase2aMsg is a master's staged phase-2a proposal of one option to one
// peer, folded into a phase2aBatchMsg.
type phase2aMsg struct {
	Txn    txn.ID
	Key    string
	Ballot uint64
	Option txn.Op
	Master simnet.Addr
	// Epoch is the master's lease epoch (see phase1aMsg.Epoch).
	Epoch uint64
}
