package obs

import (
	"fmt"
	"strings"
	"time"

	"planet/internal/txn"
)

// EventKind enumerates per-transaction lifecycle events.
type EventKind uint8

const (
	// EvSubmitted: the transaction entered the system.
	EvSubmitted EventKind = iota
	// EvAdmission: admission control ruled (Accept = admitted) with the
	// predicted commit likelihood at submission.
	EvAdmission
	// EvVote: one replica's fast-path vote on one option arrived.
	EvVote
	// EvFallback: one option fell back from fast to classic Paxos.
	EvFallback
	// EvLearned: one option reached a definitive accept/reject.
	EvLearned
	// EvSpeculative: the likelihood crossed the speculation threshold.
	EvSpeculative
	// EvDeadline: the application deadline passed before the decision.
	EvDeadline
	// EvFinal: the final decision (Accept = committed).
	EvFinal
	// EvApology: the transaction speculated and then aborted.
	EvApology
	// EvFault: a fault hit the deployment while the transaction was in
	// flight (a FaultLog entry inside its [start, end]). Note carries the
	// fault description, so a trace shows *why* a transaction stalled,
	// fell back, or timed out.
	EvFault
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvSubmitted:
		return "submitted"
	case EvAdmission:
		return "admission"
	case EvVote:
		return "vote"
	case EvFallback:
		return "fallback"
	case EvLearned:
		return "learned"
	case EvSpeculative:
		return "speculative"
	case EvDeadline:
		return "deadline"
	case EvFinal:
		return "final"
	case EvApology:
		return "apology"
	case EvFault:
		return "fault"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one timestamped lifecycle observation.
type Event struct {
	At   time.Time
	Kind EventKind
	// Key and Region identify the option/replica for vote, fallback, and
	// learn events.
	Key    string
	Region string
	// Accept carries the event's verdict: vote accept, admission verdict,
	// option outcome, or final commit.
	Accept bool
	// Likelihood is the predicted commit likelihood after the event.
	Likelihood float64
	// Note carries free-form detail (reject reason, error text).
	Note string
}

// Trace is one transaction's recorded lifecycle.
type Trace struct {
	ID    txn.ID
	Start time.Time
	// End and Outcome are set once the transaction finishes; Outcome is
	// one of "committed", "aborted", "rejected".
	End        time.Time
	Done       bool
	Outcome    string
	Speculated bool
	// Slow marks traces whose duration reached the store's slow threshold.
	Slow   bool
	Events []Event
}

// clone returns tr with its own copy of the events.
func (tr Trace) clone() Trace {
	tr.Events = append([]Event(nil), tr.Events...)
	return tr
}

// String renders a finished trace as an indented event log for slow-txn
// logging.
func (tr Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s in %s (%d events)", tr.ID, tr.Outcome, tr.End.Sub(tr.Start), len(tr.Events))
	for _, e := range tr.Events {
		fmt.Fprintf(&b, "\n  +%-12s %-11s", e.At.Sub(tr.Start), e.Kind)
		if e.Key != "" {
			fmt.Fprintf(&b, " key=%s", e.Key)
		}
		if e.Region != "" {
			fmt.Fprintf(&b, " region=%s", e.Region)
		}
		switch e.Kind {
		case EvVote, EvLearned, EvAdmission, EvFinal:
			fmt.Fprintf(&b, " accept=%v", e.Accept)
		}
		if e.Likelihood > 0 {
			fmt.Fprintf(&b, " likelihood=%.3f", e.Likelihood)
		}
		if e.Note != "" {
			fmt.Fprintf(&b, " (%s)", e.Note)
		}
	}
	return b.String()
}
