package mdcc

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"planet/internal/obs"
	"planet/internal/simnet"
	"planet/internal/txn"
	"planet/internal/vclock"
)

// CoordinatorConfig parameterizes a region's transaction coordinator.
type CoordinatorConfig struct {
	// Net is the transport (simnet.Network or realnet.Transport). Required.
	Net Transport
	// Addr is the coordinator's own address. Required.
	Addr simnet.Addr
	// Replicas lists every replica address. Required.
	Replicas []simnet.Addr
	// MasterFor routes a key to its master replica. Required.
	MasterFor func(key string) simnet.Addr
	// CommitTimeout bounds a transaction's in-flight time (already
	// time-scaled). Zero disables the timeout.
	CommitTimeout time.Duration
	// Unreachable, when non-nil, reports whether a replica region is
	// currently unreachable over the transport (realnet peer health).
	// When so many replicas are unreachable that the fast quorum cannot
	// form, a fast-path submit degrades straight to the classic path
	// instead of burning its commit timeout waiting for votes that cannot
	// arrive. Nil (the simnet default) disables the check.
	Unreachable func(region simnet.Region) bool
	// EarlyAbort enables optimistic abort propagation: when conflict
	// rejects push the fast quorum out of reach, the option is learned
	// rejected on the spot — and the abort decide broadcast immediately
	// clears its sibling pendings at every replica — instead of paying a
	// classic master round-trip that the same conflict would almost
	// certainly also reject. Fatal rejects (version, bound) already abort
	// on arrival regardless of this flag; EarlyAbort extends the shortcut
	// to pending-conflict evidence. Rejects that ask for the classic path
	// by design (ReasonClassicOwned, ReasonNotMaster) still fall back.
	EarlyAbort bool
}

// optStatus is the lifecycle of a single option at the coordinator.
type optStatus uint8

const (
	optFast optStatus = iota
	optClassic
	optAccepted
	optRejected
)

// optState tracks vote collection for one option.
type optState struct {
	op      txn.Op
	status  optStatus
	voted   uint64 // bitmask over replica indices (see Coordinator.regionBit)
	accepts int
	rejects int
	reason  RejectReason
	// retries counts master re-resolutions after ReasonNotMaster bounces
	// (leased mastership: the lease moved and routing lagged).
	retries uint8
}

// maxMasterRetries bounds how many times one option chases a moving master
// lease before its rejection sticks. The commit timeout bounds the total
// time either way.
const maxMasterRetries = 3

// commitState is a transaction in flight at the coordinator.
type commitState struct {
	id    txn.ID
	ops   []txn.Op
	mode  Mode
	sink  ProgressSink
	start time.Time
	// opts holds per-option vote state inline, in submission order. A
	// linear key scan over a handful of options beats a map on both
	// allocation count and lookup cost.
	opts    []optState
	open    int // options not yet learned
	decided bool
	timer   vclock.Timer
	// span is the transaction's root span id (0 = untraced); every
	// protocol message for the transaction carries it as trace context.
	span uint64
}

// opt returns the state for key, or nil.
func (s *commitState) opt(key string) *optState {
	for i := range s.opts {
		if s.opts[i].op.Key == key {
			return &s.opts[i]
		}
	}
	return nil
}

// CoordObserver receives a coordinator's protocol instrumentation: votes as
// they arrive, fallbacks to classic Paxos, commit timeouts, and final
// decisions. Callbacks run with the coordinator lock held and must be fast
// and must not call back into the coordinator.
type CoordObserver interface {
	Vote(region simnet.Region, accept bool, elapsed time.Duration)
	Fallback()
	Timeout()
	Decided(commit bool, elapsed time.Duration)
}

// Coordinator drives commit processing for transactions originating in its
// region. It is a learner for option outcomes and the decision authority
// for the transactions it coordinates.
type Coordinator struct {
	cfg CoordinatorConfig
	clk vclock.Clock // the network's clock

	mu      sync.Mutex
	active  map[txn.ID]*commitState
	reads   map[uint64]*readWaiter
	obs     CoordObserver
	spans   *obs.SpanStore
	crashed bool

	// Stats for tests and experiments.
	Fallbacks uint64
	Timeouts  uint64
	// DegradedSubmits counts fast-path submissions rerouted to the classic
	// path because the fast quorum was unreachable (see
	// CoordinatorConfig.Unreachable).
	DegradedSubmits uint64
	// MasterRedirects counts classic proposals re-sent after a
	// ReasonNotMaster bounce (the master lease moved under the router).
	MasterRedirects uint64
	// EarlyAborts counts options learned rejected at the would-be classic
	// fallback because conflict evidence doomed them (EarlyAbort mode).
	EarlyAborts uint64
}

// SetObserver installs o (nil clears). Typically wired once at startup.
func (c *Coordinator) SetObserver(o CoordObserver) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.obs = o
}

// SetSpans installs the span store receiving this coordinator's stage spans
// and the span reports replicas and masters flush back to it (nil clears).
// Typically wired once at startup.
func (c *Coordinator) SetSpans(st *obs.SpanStore) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = st
}

// NewCoordinator constructs and registers a coordinator on cfg.Net.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Net == nil || len(cfg.Replicas) == 0 || cfg.MasterFor == nil {
		return nil, fmt.Errorf("mdcc: coordinator config incomplete")
	}
	c := &Coordinator{cfg: cfg, clk: cfg.Net.Clock(), active: make(map[txn.ID]*commitState)}
	cfg.Net.Register(cfg.Addr, c.recv)
	return c, nil
}

// Addr returns the coordinator's network address.
func (c *Coordinator) Addr() simnet.Addr { return c.cfg.Addr }

// Region returns the coordinator's region.
func (c *Coordinator) Region() simnet.Region { return c.cfg.Addr.Region }

// N returns the replica count.
func (c *Coordinator) N() int { return len(c.cfg.Replicas) }

// Submit starts commit processing for a transaction. ops must contain at
// most one operation per key. All progress — including the final decision —
// is delivered through sink from network goroutines. A transaction with no
// writes commits immediately.
func (c *Coordinator) Submit(id txn.ID, ops []txn.Op, mode Mode, sink ProgressSink) error {
	return c.SubmitTraced(id, ops, mode, sink, 0)
}

// SubmitTraced is Submit with a caller-provided root span id: every
// protocol message of the transaction carries it as trace context, and
// spans recorded at replicas and masters parent to it, stitching the
// cross-process causal tree. span 0 disables tracing for the transaction.
func (c *Coordinator) SubmitTraced(id txn.ID, ops []txn.Op, mode Mode, sink ProgressSink, span uint64) error {
	for i, op := range ops {
		if op.Key == "" {
			return fmt.Errorf("mdcc: %s has an operation with an empty key", id)
		}
		for _, prev := range ops[:i] {
			if prev.Key == op.Key {
				return fmt.Errorf("mdcc: %s has multiple operations on key %q", id, op.Key)
			}
		}
	}

	// Graceful degradation: with the fast quorum known-unreachable, fast
	// proposals can only time out. The classic path needs one master plus a
	// majority, which may still be reachable, so go there directly.
	degraded := mode == ModeFast && len(ops) > 0 && !c.FastQuorumReachable()
	if degraded {
		mode = ModeClassic
	}

	s := &commitState{
		id:    id,
		ops:   ops,
		mode:  mode,
		sink:  sink,
		start: c.clk.Now(),
		opts:  make([]optState, len(ops)),
		open:  len(ops),
		span:  span,
	}
	for i, op := range ops {
		s.opts[i].op = op
		if mode == ModeClassic {
			s.opts[i].status = optClassic
		}
	}

	c.mu.Lock()
	if c.crashed {
		// A dead process accepts nothing; the caller sees the same error
		// a severed client connection would produce.
		c.mu.Unlock()
		return fmt.Errorf("mdcc: submit %s: %w", id, ErrCrashed)
	}
	c.active[id] = s
	if degraded {
		c.DegradedSubmits++
	}
	if c.cfg.CommitTimeout > 0 {
		s.timer = c.clk.AfterFunc(c.cfg.CommitTimeout, func() { c.onTimeout(id) })
	}
	c.mu.Unlock()

	sink.Progress(ProgressEvent{Txn: id, Kind: KindSubmitted})

	if len(ops) == 0 {
		c.mu.Lock()
		c.decideLocked(s, true, nil)
		c.mu.Unlock()
		return nil
	}

	switch mode {
	case ModeClassic:
		c.sendClassic(id, span, ops)
	default:
		// Boxed once: every replica is sent the same immutable message.
		var m any = proposeMsg{Txn: id, Coord: c.cfg.Addr, Options: ops, TC: c.traceCtx(span)}
		for _, rep := range c.cfg.Replicas {
			c.cfg.Net.Send(c.cfg.Addr, rep, m)
		}
	}
	return nil
}

// FastQuorumReachable reports whether enough replicas are reachable over the
// transport for a fast quorum to form (see CoordinatorConfig.Unreachable).
// A fast-path submit goes classic when it is false, and the DB sheds
// speculation in the coordinator's region. Always true without an
// Unreachable predicate (simnet).
func (c *Coordinator) FastQuorumReachable() bool {
	if c.cfg.Unreachable == nil {
		return true
	}
	reachable := 0
	for _, rep := range c.cfg.Replicas {
		if !c.cfg.Unreachable(rep.Region) {
			reachable++
		}
	}
	return reachable >= FastQuorum(len(c.cfg.Replicas))
}

// traceCtx builds the outgoing trace context for a transaction's root span:
// the zero TraceCtx when untraced, else the span plus the current clock for
// the receiver's network-leg timing.
func (c *Coordinator) traceCtx(span uint64) TraceCtx {
	if span == 0 {
		return TraceCtx{}
	}
	return TraceCtx{Span: span, SentUnixNano: c.clk.Now().UnixNano()}
}

// sendClassic routes options to their masters: one classicProposeBatchMsg
// per master, options grouped in option order (never map order, so routing
// is deterministic).
func (c *Coordinator) sendClassic(id txn.ID, span uint64, ops []txn.Op) {
	tc := c.traceCtx(span)
	type masterGroup struct {
		to  simnet.Addr
		ops []txn.Op
	}
	var groups []masterGroup
outer:
	for _, op := range ops {
		to := c.cfg.MasterFor(op.Key)
		for i := range groups {
			if groups[i].to == to {
				groups[i].ops = append(groups[i].ops, op)
				continue outer
			}
		}
		groups = append(groups, masterGroup{to: to, ops: []txn.Op{op}})
	}
	for _, g := range groups {
		c.cfg.Net.Send(c.cfg.Addr, g.to,
			classicProposeBatchMsg{Txn: id, Coord: c.cfg.Addr, Options: g.ops, TC: tc})
	}
}

// regionBit maps a replica's region to its bit in vote masks. ok is false
// for regions outside the replica set, whose votes are ignored.
func (c *Coordinator) regionBit(reg simnet.Region) (uint64, bool) {
	for i, rep := range c.cfg.Replicas {
		if rep.Region == reg {
			return 1 << uint(i), true
		}
	}
	return 0, false
}

// recv dispatches network messages.
func (c *Coordinator) recv(m simnet.Message) {
	c.mu.Lock()
	dead := c.crashed
	c.mu.Unlock()
	if dead {
		// A delivery that raced with Crash's deregistration.
		return
	}
	switch p := m.Payload.(type) {
	case voteBatchMsg:
		c.onVoteBatch(p)
	case classicResultBatchMsg:
		c.onClassicResultBatch(p)
	case spanReportMsg:
		c.mu.Lock()
		st := c.spans
		c.mu.Unlock()
		st.AddBatch(p.Spans)
	case readResp:
		c.onReadResp(p)
	}
}

// recordReturnLegLocked times the network leg that carried a vote or
// classic result back to the coordinator, parenting it to the sender's
// span. Caller holds c.mu.
func (c *Coordinator) recordReturnLegLocked(id txn.ID, tc TraceCtx, region simnet.Region) {
	if tc.Span == 0 || c.spans == nil {
		return
	}
	c.spans.Add(obs.Span{
		Txn: id, ID: obs.NewSpanID(), Parent: tc.Span,
		Stage: obs.StageVoteReturn, Region: string(region),
		Start: time.Unix(0, tc.SentUnixNano), End: c.clk.Now(),
	})
}

// onVoteBatch processes one replica's votes on every option of a proposal
// under a single lock acquisition. Votes are applied in batch order — the
// proposal's submission order — so sinks observe one vote event per option
// in that order. Options whose fast quorum became unreachable are re-routed
// to their masters together, grouped per destination.
func (c *Coordinator) onVoteBatch(b voteBatchMsg) {
	c.mu.Lock()
	s := c.active[b.Txn]
	if s == nil || s.decided {
		c.mu.Unlock()
		return
	}
	c.recordReturnLegLocked(b.Txn, b.TC, b.Region)
	var fallbacks []txn.Op
	for _, v := range b.Votes {
		if s.decided {
			// A fatal reject earlier in the batch decided the transaction;
			// the remaining votes are moot.
			break
		}
		if op, fell := c.applyVoteLocked(s, v.Key, b.Region, v.Accept, v.Reason); fell {
			fallbacks = append(fallbacks, op)
		}
	}
	if len(fallbacks) > 0 {
		c.sendClassic(s.id, s.span, fallbacks)
	}
	c.mu.Unlock()
}

// applyVoteLocked folds one replica's vote on one option into the commit
// state: duplicate suppression, quorum/fatality checks, and the resulting
// learn/decide/fallback transition. When the option must fall back to its
// master it is returned with fell=true; the caller sends it (batched with
// any siblings from the same vote batch). Caller holds c.mu.
func (c *Coordinator) applyVoteLocked(s *commitState, key string, region simnet.Region, accept bool, reason RejectReason) (op txn.Op, fell bool) {
	st := s.opt(key)
	if st == nil || st.status != optFast {
		return txn.Op{}, false
	}
	bit, known := c.regionBit(region)
	if !known || st.voted&bit != 0 {
		return txn.Op{}, false
	}
	st.voted |= bit
	if accept {
		st.accepts++
	} else {
		st.rejects++
		if st.reason == ReasonNone {
			st.reason = reason
		}
	}

	// Emit the vote before any learn/decide it triggers, so sinks see
	// vote counts that are consistent with option outcomes.
	elapsed := c.clk.Since(s.start)
	if c.obs != nil {
		c.obs.Vote(region, accept, elapsed)
	}
	s.sink.Progress(ProgressEvent{Txn: s.id, Kind: KindVote, Key: key,
		Region: region, Accept: accept, Reason: reason, Elapsed: elapsed})

	n := c.N()
	fq := FastQuorum(n)
	switch {
	case st.accepts >= fq:
		c.learnLocked(s, st, true, ReasonNone)
	case !accept && reason.Fatal():
		c.learnLocked(s, st, false, reason)
	case st.accepts+(n-bits.OnesCount64(st.voted)) < fq:
		// The fast quorum is out of reach. Under EarlyAbort, conflict
		// evidence (a pending or version reject pushed us here) dooms the
		// option now: the master holds the same pendings the replicas
		// voted against, so the classic round-trip would reject too, half
		// an RTT later. Learning the rejection here decides the abort and
		// broadcasts it, which clears this transaction's sibling pendings
		// at every replica — queued dependents stop conflicting against a
		// corpse. Lease/routing rejects still want the classic path.
		if c.cfg.EarlyAbort && (st.reason == ReasonPending || st.reason.Fatal()) {
			c.EarlyAborts++
			c.learnLocked(s, st, false, st.reason)
			return txn.Op{}, false
		}
		// Fall back to the master.
		st.status = optClassic
		st.reason = ReasonNone
		c.Fallbacks++
		if c.obs != nil {
			c.obs.Fallback()
		}
		s.sink.Progress(ProgressEvent{Txn: s.id, Kind: KindFallback, Key: key, Elapsed: elapsed})
		return st.op, true
	}
	return txn.Op{}, false
}

// onClassicResultBatch processes a master's coalesced verdicts for several
// options of one transaction under a single lock acquisition.
func (c *Coordinator) onClassicResultBatch(b classicResultBatchMsg) {
	c.mu.Lock()
	s := c.active[b.Txn]
	if s == nil || s.decided {
		c.mu.Unlock()
		return
	}
	c.recordReturnLegLocked(b.Txn, b.TC, "")
	for _, res := range b.Results {
		if s.decided {
			break
		}
		c.applyClassicResultLocked(s, res.Key, res.Accepted, res.Reason)
	}
	c.mu.Unlock()
}

// applyClassicResultLocked folds one master verdict into the commit state.
// A ReasonNotMaster bounce — the routed-to replica does not hold the key's
// master lease — re-resolves the master through MasterFor (which consults
// the freshest lease view) and retries, a bounded number of times. Caller
// holds c.mu.
func (c *Coordinator) applyClassicResultLocked(s *commitState, key string, accepted bool, reason RejectReason) {
	st := s.opt(key)
	if st == nil || st.status != optClassic {
		return
	}
	if !accepted && reason == ReasonNotMaster && st.retries < maxMasterRetries {
		st.retries++
		c.MasterRedirects++
		c.sendClassic(s.id, s.span, []txn.Op{st.op})
		return
	}
	c.learnLocked(s, st, accepted, reason)
}

// learnLocked finalizes one option and, when conclusive for the whole
// transaction, decides it. Caller holds c.mu.
func (c *Coordinator) learnLocked(s *commitState, st *optState, accepted bool, reason RejectReason) {
	if st.status == optAccepted || st.status == optRejected {
		return
	}
	if accepted {
		st.status = optAccepted
	} else {
		st.status = optRejected
		st.reason = reason
	}
	s.open--

	s.sink.Progress(ProgressEvent{Txn: s.id, Kind: KindOptionLearned, Key: st.op.Key,
		Accept: accepted, Reason: reason, Elapsed: c.clk.Since(s.start)})

	if !accepted {
		c.decideLocked(s, false, reasonErr(reason))
		return
	}
	if s.open == 0 {
		c.decideLocked(s, true, nil)
	}
}

// onTimeout aborts a transaction that outlived its commit timeout.
func (c *Coordinator) onTimeout(id txn.ID) {
	c.mu.Lock()
	s := c.active[id]
	if s == nil || s.decided {
		c.mu.Unlock()
		return
	}
	c.Timeouts++
	if c.obs != nil {
		c.obs.Timeout()
	}
	c.decideLocked(s, false, ErrTimeout)
	c.mu.Unlock()
}

// decideLocked records the final decision, broadcasts it to the replicas,
// and notifies the sink. Caller holds c.mu.
func (c *Coordinator) decideLocked(s *commitState, commit bool, err error) {
	if s.decided {
		return
	}
	s.decided = true
	if s.timer != nil {
		s.timer.Stop()
	}
	delete(c.active, s.id)

	d := decideMsg{Txn: s.id, Commit: commit, Options: s.ops}
	if s.span != 0 && c.spans != nil {
		now := c.clk.Now()
		c.spans.Add(obs.Span{
			Txn: s.id, ID: obs.NewSpanID(), Parent: s.span,
			Stage: obs.StageQuorumWait, Region: string(c.Region()),
			Start: s.start, End: now,
		})
		d.TC = TraceCtx{Span: s.span, SentUnixNano: now.UnixNano()}
		d.Coord = c.cfg.Addr
	}
	var m any = d // boxed once for the whole broadcast
	for _, rep := range c.cfg.Replicas {
		c.cfg.Net.Send(c.cfg.Addr, rep, m)
	}
	if c.obs != nil {
		c.obs.Decided(commit, c.clk.Since(s.start))
	}
	s.sink.Progress(ProgressEvent{Txn: s.id, Kind: KindDecided,
		Accept: commit, Elapsed: c.clk.Since(s.start)})
	s.sink.Decided(s.id, commit, err)
}

// Crash simulates a coordinator process failure: it leaves the network and
// every in-flight transaction fails over to its sink with ErrCrashed. No
// decide message is broadcast for them — the coordinator is the decision
// authority, so an undecided transaction dies with it and its pendings at
// the replicas are left for PendingTTL eviction, exactly as a real crashed
// coordinator would leave them.
func (c *Coordinator) Crash() {
	c.cfg.Net.Deregister(c.cfg.Addr)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return
	}
	c.crashed = true
	for id, s := range c.active {
		s.decided = true
		if s.timer != nil {
			s.timer.Stop()
		}
		delete(c.active, id)
		if c.obs != nil {
			c.obs.Decided(false, c.clk.Since(s.start))
		}
		s.sink.Progress(ProgressEvent{Txn: id, Kind: KindDecided,
			Accept: false, Elapsed: c.clk.Since(s.start)})
		s.sink.Decided(id, false, ErrCrashed)
	}
}

// Restart rejoins a crashed coordinator to the network. Coordinators keep
// no durable state: recovery is simply re-registration with an empty
// in-flight table (the crash already failed every open transaction).
func (c *Coordinator) Restart() {
	c.mu.Lock()
	c.crashed = false
	c.mu.Unlock()
	c.cfg.Net.Register(c.cfg.Addr, c.recv)
}

// Crashed reports whether the coordinator is currently down.
func (c *Coordinator) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// reasonErr maps a rejection reason to the error surfaced to applications.
func reasonErr(r RejectReason) error {
	switch r {
	case ReasonBound:
		return ErrBound
	case ReasonVersion, ReasonPending, ReasonClassicOwned, ReasonDecided, ReasonNotMaster:
		return ErrConflict
	case ReasonBallot:
		return ErrAmbiguous
	default:
		return ErrConflict
	}
}
