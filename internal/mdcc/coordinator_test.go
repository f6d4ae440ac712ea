package mdcc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"planet/internal/latency"
	"planet/internal/simnet"
	"planet/internal/txn"
	"planet/internal/vclock"
)

// recordSink captures events and the decision (white-box tests).
type recordSink struct {
	mu      sync.Mutex
	events  []ProgressEvent
	decided bool
	commit  bool
	err     error
}

func (s *recordSink) Progress(e ProgressEvent) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *recordSink) Decided(_ txn.ID, committed bool, err error) {
	s.mu.Lock()
	s.decided, s.commit, s.err = true, committed, err
	s.mu.Unlock()
}

func (s *recordSink) state() (bool, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.decided, s.commit, s.err
}

// newLoneNet returns a network of 1µs links on a virtual clock whose
// execution slot the test goroutine holds, for white-box tests that drive
// handlers by hand: timers fire only while the test sleeps on the clock.
func newLoneNet(t *testing.T) *simnet.Network {
	t.Helper()
	clk := vclock.NewVirtual()
	t.Cleanup(clk.Shutdown)
	net, err := simnet.New(simnet.Config{Latency: simnet.NewMatrix(latency.Constant(time.Microsecond)), TimeScale: 1, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	return net
}

// newLoneCoordinator builds a coordinator whose replicas are unregistered
// addresses, so vote messages are injected directly via onVoteBatch.
func newLoneCoordinator(t *testing.T, n int) *Coordinator {
	t.Helper()
	net := newLoneNet(t)
	replicas := make([]simnet.Addr, n)
	for i := range replicas {
		replicas[i] = simnet.Addr{Region: simnet.Region(string(rune('a' + i))), Name: "replica"}
	}
	c, err := NewCoordinator(CoordinatorConfig{
		Net:       net,
		Addr:      simnet.Addr{Region: "a", Name: "coord"},
		Replicas:  replicas,
		MasterFor: func(string) simnet.Addr { return replicas[0] },
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// vote is one replica's one-option vote batch.
func vote(id txn.ID, key string, region int, accept bool, reason RejectReason) voteBatchMsg {
	return voteBatchMsg{Txn: id, Region: simnet.Region(string(rune('a' + region))),
		Votes: []optionVote{{Key: key, Accept: accept, Reason: reason}}}
}

// result is a master's one-option result batch.
func result(id txn.ID, key string, accepted bool, reason RejectReason) classicResultBatchMsg {
	return classicResultBatchMsg{Txn: id,
		Results: []optionResult{{Key: key, Accepted: accepted, Reason: reason}}}
}

func TestCoordinatorFastQuorumCommits(t *testing.T) {
	c := newLoneCoordinator(t, 5)
	sink := &recordSink{}
	id := txn.NewID()
	if err := c.Submit(id, []txn.Op{setOp("k", 0)}, ModeFast, sink); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.exec("", vote(id, "k", i, true, ReasonNone))
	}
	if decided, _, _ := sink.state(); decided {
		t.Fatal("decided with 3 of 4 needed accepts")
	}
	c.exec("", vote(id, "k", 3, true, ReasonNone))
	decided, commit, err := sink.state()
	if !decided || !commit || err != nil {
		t.Fatalf("decided=%v commit=%v err=%v", decided, commit, err)
	}
	// Late vote is harmless.
	c.exec("", vote(id, "k", 4, true, ReasonNone))
}

func TestCoordinatorDuplicateVotesIgnored(t *testing.T) {
	c := newLoneCoordinator(t, 5)
	sink := &recordSink{}
	id := txn.NewID()
	if err := c.Submit(id, []txn.Op{setOp("k", 0)}, ModeFast, sink); err != nil {
		t.Fatal(err)
	}
	// The same region voting four times must not fake a quorum.
	for i := 0; i < 4; i++ {
		c.exec("", vote(id, "k", 0, true, ReasonNone))
	}
	if decided, _, _ := sink.state(); decided {
		t.Fatal("duplicate votes reached quorum")
	}
}

func TestCoordinatorFatalRejectAborts(t *testing.T) {
	c := newLoneCoordinator(t, 5)
	sink := &recordSink{}
	id := txn.NewID()
	if err := c.Submit(id, []txn.Op{setOp("k", 0)}, ModeFast, sink); err != nil {
		t.Fatal(err)
	}
	c.exec("", vote(id, "k", 0, true, ReasonNone))
	c.exec("", vote(id, "k", 1, false, ReasonVersion))
	decided, commit, err := sink.state()
	if !decided || commit {
		t.Fatalf("fatal reject: decided=%v commit=%v", decided, commit)
	}
	if !errors.Is(err, ErrConflict) {
		t.Errorf("err=%v", err)
	}
}

func TestCoordinatorAmbiguityFallsBackOnce(t *testing.T) {
	c := newLoneCoordinator(t, 5)
	sink := &recordSink{}
	id := txn.NewID()
	if err := c.Submit(id, []txn.Op{setOp("k", 0)}, ModeFast, sink); err != nil {
		t.Fatal(err)
	}
	// Two pending-conflict rejects: accepts can still reach 4? votes so
	// far 2 rejects, 3 outstanding, max accepts 3 < 4 → ambiguous after
	// the second reject.
	c.exec("", vote(id, "k", 0, false, ReasonPending))
	if c.Fallbacks != 0 {
		t.Fatal("fell back too early")
	}
	c.exec("", vote(id, "k", 1, false, ReasonPending))
	if c.Fallbacks != 1 {
		t.Fatalf("fallbacks=%d, want 1", c.Fallbacks)
	}
	// Stale fast votes after the fallback change nothing.
	c.exec("", vote(id, "k", 2, true, ReasonNone))
	if decided, _, _ := sink.state(); decided {
		t.Fatal("decided from stale fast votes after fallback")
	}
	// The classic result settles it.
	c.exec("", result(id, "k", true, ReasonNone))
	decided, commit, _ := sink.state()
	if !decided || !commit {
		t.Fatalf("classic result ignored: decided=%v commit=%v", decided, commit)
	}
}

func TestCoordinatorMultiOptionAllMustAccept(t *testing.T) {
	c := newLoneCoordinator(t, 5)
	sink := &recordSink{}
	id := txn.NewID()
	ops := []txn.Op{setOp("k1", 0), setOp("k2", 0)}
	if err := c.Submit(id, ops, ModeFast, sink); err != nil {
		t.Fatal(err)
	}
	// k1 reaches its quorum.
	for i := 0; i < 4; i++ {
		c.exec("", vote(id, "k1", i, true, ReasonNone))
	}
	if decided, _, _ := sink.state(); decided {
		t.Fatal("decided with k2 still open")
	}
	// k2 hits a fatal conflict: abort.
	c.exec("", vote(id, "k2", 0, false, ReasonBound))
	decided, commit, err := sink.state()
	if !decided || commit || !errors.Is(err, ErrBound) {
		t.Fatalf("decided=%v commit=%v err=%v", decided, commit, err)
	}
}

func TestCoordinatorTimeout(t *testing.T) {
	net := newLoneNet(t)
	replicas := []simnet.Addr{{Region: "a", Name: "r"}, {Region: "b", Name: "r"}, {Region: "c", Name: "r"}}
	c, err := NewCoordinator(CoordinatorConfig{
		Net:           net,
		Addr:          simnet.Addr{Region: "a", Name: "coord"},
		Replicas:      replicas,
		MasterFor:     func(string) simnet.Addr { return replicas[0] },
		CommitTimeout: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordSink{}
	id := txn.NewID()
	if err := c.Submit(id, []txn.Op{setOp("k", 0)}, ModeFast, sink); err != nil {
		t.Fatal(err)
	}
	net.Clock().Sleep(2 * time.Second)
	decided, commit, err := sink.state()
	if !decided {
		t.Fatal("timeout never fired")
	}
	if commit || !errors.Is(err, ErrTimeout) {
		t.Fatalf("commit=%v err=%v", commit, err)
	}
	if c.Timeouts != 1 {
		t.Errorf("timeouts=%d", c.Timeouts)
	}
}

func TestCoordinatorClassicModeSkipsVotes(t *testing.T) {
	c := newLoneCoordinator(t, 5)
	sink := &recordSink{}
	id := txn.NewID()
	if err := c.Submit(id, []txn.Op{setOp("k", 0)}, ModeClassic, sink); err != nil {
		t.Fatal(err)
	}
	// Fast votes for a classic-mode option are ignored.
	for i := 0; i < 4; i++ {
		c.exec("", vote(id, "k", i, true, ReasonNone))
	}
	if decided, _, _ := sink.state(); decided {
		t.Fatal("classic option decided by fast votes")
	}
	c.exec("", result(id, "k", false, ReasonVersion))
	decided, commit, err := sink.state()
	if !decided || commit || !errors.Is(err, ErrConflict) {
		t.Fatalf("decided=%v commit=%v err=%v", decided, commit, err)
	}
}

func TestReasonErrMapping(t *testing.T) {
	cases := []struct {
		r    RejectReason
		want error
	}{
		{ReasonBound, ErrBound},
		{ReasonVersion, ErrConflict},
		{ReasonPending, ErrConflict},
		{ReasonClassicOwned, ErrConflict},
		{ReasonDecided, ErrConflict},
		{ReasonBallot, ErrAmbiguous},
		{ReasonNone, ErrConflict},
	}
	for _, tc := range cases {
		if got := reasonErr(tc.r); !errors.Is(got, tc.want) {
			t.Errorf("reasonErr(%v)=%v, want %v", tc.r, got, tc.want)
		}
	}
}

// newEarlyAbortCoordinator is newLoneCoordinator with optimistic abort
// propagation enabled.
func newEarlyAbortCoordinator(t *testing.T, n int) *Coordinator {
	t.Helper()
	net := newLoneNet(t)
	replicas := make([]simnet.Addr, n)
	for i := range replicas {
		replicas[i] = simnet.Addr{Region: simnet.Region(string(rune('a' + i))), Name: "replica"}
	}
	c, err := NewCoordinator(CoordinatorConfig{
		Net:        net,
		Addr:       simnet.Addr{Region: "a", Name: "coord"},
		Replicas:   replicas,
		MasterFor:  func(string) simnet.Addr { return replicas[0] },
		EarlyAbort: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCoordinatorEarlyAbortOnConflict(t *testing.T) {
	c := newEarlyAbortCoordinator(t, 5)
	sink := &recordSink{}
	id := txn.NewID()
	if err := c.Submit(id, []txn.Op{setOp("k", 0)}, ModeFast, sink); err != nil {
		t.Fatal(err)
	}
	// One pending reject leaves the fast quorum reachable: no decision.
	c.exec("", vote(id, "k", 0, false, ReasonPending))
	if decided, _, _ := sink.state(); decided {
		t.Fatal("decided while the fast quorum was still reachable")
	}
	// The second conflict reject makes the quorum unreachable. Without
	// EarlyAbort this falls back to classic; with it, the option is
	// learned rejected on the spot and the abort is decided.
	c.exec("", vote(id, "k", 1, false, ReasonPending))
	decided, commit, err := sink.state()
	if !decided || commit {
		t.Fatalf("early abort: decided=%v commit=%v", decided, commit)
	}
	if !errors.Is(err, ErrConflict) {
		t.Errorf("err=%v, want conflict", err)
	}
	if c.EarlyAborts != 1 || c.Fallbacks != 0 {
		t.Fatalf("EarlyAborts=%d Fallbacks=%d, want 1/0", c.EarlyAborts, c.Fallbacks)
	}
}

func TestCoordinatorEarlyAbortSparesClassicBound(t *testing.T) {
	// Lease/routing rejections still want the classic path: EarlyAbort
	// must not turn a ReasonClassicOwned quorum miss into an abort.
	c := newEarlyAbortCoordinator(t, 5)
	sink := &recordSink{}
	id := txn.NewID()
	if err := c.Submit(id, []txn.Op{setOp("k", 0)}, ModeFast, sink); err != nil {
		t.Fatal(err)
	}
	c.exec("", vote(id, "k", 0, false, ReasonClassicOwned))
	c.exec("", vote(id, "k", 1, false, ReasonClassicOwned))
	if decided, _, _ := sink.state(); decided {
		t.Fatal("classic-owned rejects were early-aborted")
	}
	if c.Fallbacks != 1 || c.EarlyAborts != 0 {
		t.Fatalf("Fallbacks=%d EarlyAborts=%d, want 1/0", c.Fallbacks, c.EarlyAborts)
	}
	c.exec("", result(id, "k", true, ReasonNone))
	if decided, commit, _ := sink.state(); !decided || !commit {
		t.Fatal("classic path did not settle the option")
	}
}
