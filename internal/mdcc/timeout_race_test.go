package mdcc

// White-box tests for the coordinator's timeout/late-vote race: a vote that
// arrives after onTimeout (or after the decision, in general) must not flip
// the decision, re-notify the sink, or double-count in the observer stats.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"planet/internal/simnet"
	"planet/internal/txn"
)

// recSink records progress events and decisions for white-box assertions.
type recSink struct {
	mu      sync.Mutex
	events  []ProgressEvent
	decided int
	commit  bool
	err     error
}

func (s *recSink) Progress(e ProgressEvent) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *recSink) Decided(_ txn.ID, committed bool, err error) {
	s.mu.Lock()
	s.decided++
	s.commit = committed
	s.err = err
	s.mu.Unlock()
}

func (s *recSink) kinds() map[ProgressKind]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[ProgressKind]int)
	for _, e := range s.events {
		out[e.Kind]++
	}
	return out
}

// tallyObserver counts CoordObserver callbacks.
type tallyObserver struct {
	mu    sync.Mutex
	tally struct {
		votes, fallbacks, timeouts, decisions int
	}
}

func (o *tallyObserver) Vote(simnet.Region, bool, time.Duration) {
	o.mu.Lock()
	o.tally.votes++
	o.mu.Unlock()
}

func (o *tallyObserver) Fallback() {
	o.mu.Lock()
	o.tally.fallbacks++
	o.mu.Unlock()
}

func (o *tallyObserver) Timeout() {
	o.mu.Lock()
	o.tally.timeouts++
	o.mu.Unlock()
}

func (o *tallyObserver) Decided(bool, time.Duration) {
	o.mu.Lock()
	o.tally.decisions++
	o.mu.Unlock()
}

func (o *tallyObserver) snapshot() struct{ votes, fallbacks, timeouts, decisions int } {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.tally
}

// raceRegions is a five-region set for the white-box coordinator tests.
var raceRegions = []simnet.Region{"r1", "r2", "r3", "r4", "r5"}

// newRaceCoordinator builds a coordinator whose replica addresses point at
// nothing: proposals vanish, and the test injects votes by hand.
func newRaceCoordinator(t *testing.T) (*Coordinator, *recSink, *tallyObserver) {
	t.Helper()
	net := newLoneNet(t)
	replicas := make([]simnet.Addr, len(raceRegions))
	for i, r := range raceRegions {
		replicas[i] = simnet.Addr{Region: r, Name: "replica"}
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Net:       net,
		Addr:      simnet.Addr{Region: raceRegions[0], Name: "coord"},
		Replicas:  replicas,
		MasterFor: func(string) simnet.Addr { return replicas[0] },
		// No timer: the tests feed the timeout input by hand for determinism.
		CommitTimeout: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := &tallyObserver{}
	coord.SetObserver(obs)
	sink := &recSink{}
	return coord, sink, obs
}

func TestLateVoteAfterTimeoutIgnored(t *testing.T) {
	coord, sink, obs := newRaceCoordinator(t)
	id := txn.NewID()
	if err := coord.Submit(id, []txn.Op{{Kind: txn.OpSet, Key: "k"}}, ModeFast, sink); err != nil {
		t.Fatal(err)
	}

	coord.exec("", timeout{id})
	if sink.decided != 1 || sink.commit || !errors.Is(sink.err, ErrTimeout) {
		t.Fatalf("after timeout: decided=%d commit=%v err=%v", sink.decided, sink.commit, sink.err)
	}
	if coord.Timeouts != 1 {
		t.Fatalf("Timeouts=%d, want 1", coord.Timeouts)
	}

	// A full fast quorum of accepts straggles in after the timeout. None
	// of it may flip the decision, reach the sink, or count as votes.
	for _, r := range raceRegions {
		coord.exec("", voteBatchMsg{Txn: id, Region: r, Votes: []optionVote{{Key: "k", Accept: true}}})
	}
	// And a second timeout firing (stopped-timer race) must be a no-op.
	coord.exec("", timeout{id})

	if sink.decided != 1 {
		t.Errorf("decided fired %d times, want exactly 1", sink.decided)
	}
	if sink.commit {
		t.Error("late votes flipped an aborted transaction to committed")
	}
	if got := sink.kinds()[KindVote]; got != 0 {
		t.Errorf("%d late votes reached the sink", got)
	}
	if obs.snapshot().votes != 0 {
		t.Errorf("%d late votes reached the observer", obs.snapshot().votes)
	}
	if coord.Timeouts != 1 {
		t.Errorf("Timeouts=%d after straggler re-fire, want 1", coord.Timeouts)
	}
	if got := obs.snapshot().decisions; got != 1 {
		t.Errorf("observer saw %d decisions, want 1", got)
	}
}

func TestLateVoteAfterDecisionIgnored(t *testing.T) {
	coord, sink, obs := newRaceCoordinator(t)
	id := txn.NewID()
	if err := coord.Submit(id, []txn.Op{{Kind: txn.OpSet, Key: "k"}}, ModeFast, sink); err != nil {
		t.Fatal(err)
	}

	// FastQuorum(5) = 4 accepts decide the transaction...
	for _, r := range raceRegions[:4] {
		coord.exec("", voteBatchMsg{Txn: id, Region: r, Votes: []optionVote{{Key: "k", Accept: true}}})
	}
	if sink.decided != 1 || !sink.commit {
		t.Fatalf("after quorum: decided=%d commit=%v", sink.decided, sink.commit)
	}
	// ...so the fifth replica's reject arrives too late to matter.
	coord.exec("", voteBatchMsg{Txn: id, Region: raceRegions[4], Votes: []optionVote{{Key: "k", Reason: ReasonVersion}}})
	// As does a timeout racing the decision.
	coord.exec("", timeout{id})

	if sink.decided != 1 || !sink.commit {
		t.Errorf("late reject/timeout changed the outcome: decided=%d commit=%v err=%v",
			sink.decided, sink.commit, sink.err)
	}
	if got := obs.snapshot().votes; got != 4 {
		t.Errorf("observer counted %d votes, want 4 (late reject excluded)", got)
	}
	if coord.Timeouts != 0 {
		t.Errorf("Timeouts=%d for a decided transaction, want 0", coord.Timeouts)
	}
}

func TestDuplicateVoteNotDoubleCounted(t *testing.T) {
	coord, sink, obs := newRaceCoordinator(t)
	id := txn.NewID()
	if err := coord.Submit(id, []txn.Op{{Kind: txn.OpSet, Key: "k"}}, ModeFast, sink); err != nil {
		t.Fatal(err)
	}
	// The same region votes three times (retransmission); only the first
	// may count, so the transaction must remain undecided.
	for i := 0; i < 3; i++ {
		coord.exec("", voteBatchMsg{Txn: id, Region: raceRegions[0], Votes: []optionVote{{Key: "k", Accept: true}}})
	}
	if sink.decided != 0 {
		t.Fatal("duplicate votes decided the transaction")
	}
	if got := obs.snapshot().votes; got != 1 {
		t.Errorf("observer counted %d votes for one region, want 1", got)
	}
	// Clean up: finish the transaction so no timer leaks (none armed).
	coord.exec("", timeout{id})
}
