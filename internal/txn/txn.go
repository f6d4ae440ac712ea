// Package txn defines the shared transaction vocabulary used across the
// PLANET stack: transaction identifiers, operations, stages, and outcomes.
//
// The types here are deliberately free of protocol or policy logic so that
// the commit protocol (internal/mdcc), the predictor (internal/predictor)
// and the programming model (internal/core) can exchange transaction state
// without depending on each other.
package txn

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ID uniquely identifies a transaction within a cluster run.
// IDs are ordered by issue time (within a single process), which the
// protocol uses only for tie-breaking and logging, never for correctness.
type ID uint64

var nextID atomic.Uint64

// NewID returns a process-unique transaction ID.
func NewID() ID { return ID(nextID.Add(1)) }

// IDSpace hands out transaction IDs from a private namespace. A deployment
// gives each region its own space: allocation order across regions then
// never leaks into the IDs themselves, so one region's traffic never shifts
// another's IDs.
type IDSpace struct {
	base ID
	next atomic.Uint64
}

// idSpaceShift positions the namespace tag above the per-space counter,
// leaving ~7.2e16 IDs per space.
const idSpaceShift = 56

// NewIDSpace returns the id allocator for namespace n (n ≥ 0; n = -1 is the
// process-global space NewID uses).
func NewIDSpace(n int) *IDSpace {
	if n < 0 {
		return &IDSpace{}
	}
	return &IDSpace{base: ID(uint64(n+1) << idSpaceShift)}
}

// NewID returns the next ID in this space.
func (s *IDSpace) NewID() ID {
	if s == nil || s.base == 0 {
		return NewID()
	}
	return s.base + ID(s.next.Add(1))
}

// String implements fmt.Stringer.
func (id ID) String() string {
	var b [24]byte // "txn-" and up to 20 digits
	return string(strconv.AppendUint(append(b[:0], "txn-"...), uint64(id), 10))
}

// ParseID parses the String form ("txn-42") back into an ID.
func ParseID(s string) (ID, error) {
	num, ok := strings.CutPrefix(s, "txn-")
	if !ok {
		return 0, fmt.Errorf("txn: malformed id %q", s)
	}
	n, err := strconv.ParseUint(num, 10, 64)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("txn: malformed id %q", s)
	}
	return ID(n), nil
}

// OpKind distinguishes the write operations a transaction may buffer.
type OpKind uint8

const (
	// OpSet replaces the record value and requires the record version to
	// be unchanged since the transaction read it (physical write).
	OpSet OpKind = iota
	// OpAdd adds a signed delta to an integer record. Adds are
	// commutative: two concurrent adds to the same record may both
	// commit, provided the record's integrity bounds stay satisfied
	// (demarcation).
	OpAdd
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpSet:
		return "set"
	case OpAdd:
		return "add"
	default:
		return fmt.Sprintf("opkind(%d)", uint8(k))
	}
}

// Op is a single buffered write belonging to a transaction.
type Op struct {
	Kind OpKind
	Key  string
	// Value is the new value for OpSet.
	Value []byte
	// Delta is the signed increment for OpAdd.
	Delta int64
	// ReadVersion is the record version observed when the transaction
	// read the key; OpSet options are accepted only if the record is
	// still at this version. Ignored for OpAdd.
	ReadVersion int64
}

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o.Kind {
	case OpAdd:
		return fmt.Sprintf("add(%s, %+d)", o.Key, o.Delta)
	default:
		return fmt.Sprintf("set(%s@v%d, %dB)", o.Key, o.ReadVersion, len(o.Value))
	}
}

// Stage enumerates the externally visible phases of a PLANET transaction.
// Stages only ever advance (monotonically), and every transaction ends in
// exactly one of the terminal stages.
type Stage uint8

const (
	// StageInit is the zero value: the transaction is being assembled by
	// the application and has not been submitted.
	StageInit Stage = iota
	// StageRejected means admission control refused the transaction
	// before any protocol work was done. Terminal.
	StageRejected
	// StageAccepted means the system has durably queued the transaction
	// and taken responsibility for driving it to a decision.
	StageAccepted
	// StageInFlight means commit processing has started: options are out
	// to the replicas and the commit likelihood is being updated.
	StageInFlight
	// StageSpeculative means the predicted commit likelihood crossed the
	// application's speculation threshold; the app may act as if the
	// transaction committed, with a guaranteed apology if it does not.
	StageSpeculative
	// StageCommitted is the successful terminal stage.
	StageCommitted
	// StageAborted is the unsuccessful terminal stage.
	StageAborted
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageInit:
		return "init"
	case StageRejected:
		return "rejected"
	case StageAccepted:
		return "accepted"
	case StageInFlight:
		return "in-flight"
	case StageSpeculative:
		return "speculative"
	case StageCommitted:
		return "committed"
	case StageAborted:
		return "aborted"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// Outcome describes how a transaction finished.
type Outcome struct {
	ID        ID
	Committed bool
	// Rejected is true when the transaction never entered commit
	// processing because admission control refused it.
	Rejected bool
	// Err carries the abort or rejection reason, nil on commit.
	Err error
	// Submitted and Decided bracket the transaction's lifetime.
	Submitted time.Time
	Decided   time.Time
	// Speculated is true if the transaction reported a speculative
	// commit before its final decision.
	Speculated bool
}

// Duration returns the submit-to-decision latency.
func (o Outcome) Duration() time.Duration { return o.Decided.Sub(o.Submitted) }

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch {
	case o.Rejected:
		return fmt.Sprintf("%s rejected: %v", o.ID, o.Err)
	case o.Committed:
		return fmt.Sprintf("%s committed in %s", o.ID, o.Duration())
	default:
		return fmt.Sprintf("%s aborted in %s: %v", o.ID, o.Duration(), o.Err)
	}
}
