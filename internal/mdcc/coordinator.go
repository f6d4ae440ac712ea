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
	// EarlyAbort enables optimistic abort propagation: when pending-conflict
	// rejects push the fast quorum out of reach, the option is learned
	// rejected on the spot, and the abort's decide clears its sibling
	// pendings everywhere, instead of paying a classic master round-trip
	// the same conflict would almost certainly reject (see onVoteBatch).
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
	voted   uint64 // bitmask over replica indices (see regionBit)
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
	// timer is the commit timeout, which steps arm and stop only through
	// outputs.
	timer stepTimer
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
// decisions. Callbacks run inside the coordinator's step, under its lock,
// and must be fast and must not call back into the coordinator.
type CoordObserver interface {
	Vote(region simnet.Region, accept bool, elapsed time.Duration)
	Fallback()
	Timeout()
	Decided(commit bool, elapsed time.Duration)
}

// Coordinator drives commit processing for transactions originating in its
// region. It is a learner for option outcomes and the decision authority
// for the transactions it coordinates. Like Replica, it changes state only
// inside step; the unexported methods below step run inside it.
type Coordinator struct {
	cfg CoordinatorConfig
	clk vclock.Clock // the network's clock

	// mu guards the state below; exec is the only function that takes it.
	// out is the running step's output buffer.
	mu      sync.Mutex
	out     *outBuf
	active  map[txn.ID]*commitState
	reads   map[uint64]*readWaiter
	readSeq uint64 // the last quorum-read request id
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

// Coordinator.step's local inputs, besides queries and wire messages.
type (
	// submit is SubmitTraced's transaction; err is its result.
	submit struct {
		s        *commitState
		degraded bool
		err      error
	}
	// restart rejoins a crashed coordinator to the network.
	restart struct{}
	// timeout is the commit timeout of transaction id firing.
	timeout struct{ id txn.ID }
)

// exec runs one input through step and performs its outputs. It is the
// coordinator's executor and the only function that takes c.mu.
func (c *Coordinator) exec(in any) {
	b := outBufs.Get().(*outBuf)
	c.mu.Lock()
	c.out = b
	c.step(c.clk.Now(), in)
	c.out = nil
	c.mu.Unlock()
	b.perform(c.cfg.Net, c.cfg.Addr, c.clk)
	outBufs.Put(b)
}

// step is the coordinator's transition function: it applies one input, at
// time now, to the coordinator's own state and emits the input's effects to
// c.out. Besides its own state it consults only CoordinatorConfig.MasterFor,
// when it routes an option to its master. Under master leases that router
// reads the co-located replica's lease view (a query on the replica), so
// such a step is not a function of the coordinator's state alone.
func (c *Coordinator) step(now time.Time, in any) {
	switch p := in.(type) {
	case query:
		p(now)
	case *submit:
		c.submit(now, p)
	case timeout:
		c.onTimeout(now, p.id)
	case *quorumRead:
		c.quorumRead(p)
	case crash:
		c.crash(now)
	case restart:
		c.crashed = false
		c.out.add(output{kind: outRegister, msg: simnet.Handler(c.recv)})
	default:
		// A delivery that raced with Crash's deregistration.
		if !c.crashed {
			c.deliver(now, in)
		}
	}
}

// deliver dispatches a network message.
func (c *Coordinator) deliver(now time.Time, m any) {
	switch p := m.(type) {
	case voteBatchMsg:
		c.onVoteBatch(now, p)
	case classicResultBatchMsg:
		c.onClassicResultBatch(now, p)
	case spanReportMsg:
		c.spans.AddBatch(p.Spans)
	case readResp:
		c.onReadResp(p)
	}
}

// recv is the coordinator's transport handler.
func (c *Coordinator) recv(m simnet.Message) { c.exec(m.Payload) }

// SetObserver installs o (nil clears). Typically wired once at startup.
func (c *Coordinator) SetObserver(o CoordObserver) {
	c.exec(query(func(time.Time) { c.obs = o }))
}

// SetSpans installs the span store receiving this coordinator's stage spans
// and the span reports replicas and masters flush back to it (nil clears).
// Typically wired once at startup.
func (c *Coordinator) SetSpans(st *obs.SpanStore) {
	c.exec(query(func(time.Time) { c.spans = st }))
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
	in := submit{
		s:        &commitState{id: id, ops: ops, mode: mode, sink: sink, span: span},
		degraded: degraded,
	}
	c.exec(&in)
	return in.err
}

// submit registers a transaction, arms its commit timeout and sends its
// options: to every replica on the fast path, to their masters on the
// classic path.
func (c *Coordinator) submit(now time.Time, in *submit) {
	s := in.s
	if c.crashed {
		// A dead process accepts nothing; the caller sees the same error
		// a severed client connection would produce.
		in.err = fmt.Errorf("mdcc: submit %s: %w", s.id, ErrCrashed)
		return
	}
	s.start = now
	s.opts = make([]optState, len(s.ops))
	s.open = len(s.ops)
	for i, op := range s.ops {
		s.opts[i].op = op
		if s.mode == ModeClassic {
			s.opts[i].status = optClassic
		}
	}
	c.active[s.id] = s
	if in.degraded {
		c.DegradedSubmits++
	}
	if c.cfg.CommitTimeout > 0 {
		id := s.id
		c.out.add(output{kind: outArm, timer: &s.timer, ev: ProgressEvent{Txn: id},
			d: c.cfg.CommitTimeout, fn: func() { c.exec(timeout{id}) }})
	}
	c.out.progress(s.sink, ProgressEvent{Txn: s.id, Kind: KindSubmitted})

	if len(s.ops) == 0 {
		c.decide(now, s, true, nil)
		return
	}
	switch s.mode {
	case ModeClassic:
		c.sendClassic(now, s.id, s.span, s.ops)
	default:
		// Boxed once: every replica is sent the same immutable message.
		var m any = proposeMsg{Txn: s.id, Coord: c.cfg.Addr, Options: s.ops, TC: traceCtx(now, s.span)}
		for _, rep := range c.cfg.Replicas {
			c.out.send(rep, m)
		}
	}
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

// traceCtx builds the outgoing trace context for span, the sender-side span
// the receiver's spans parent to: the zero TraceCtx when untraced, else the
// span plus the send time for the receiver's network-leg timing.
func traceCtx(now time.Time, span uint64) TraceCtx {
	if span == 0 {
		return TraceCtx{}
	}
	return TraceCtx{Span: span, SentUnixNano: now.UnixNano()}
}

// sendClassic routes options to their masters: one classicProposeBatchMsg
// per master, options grouped in option order (never map order, so routing
// is deterministic).
func (c *Coordinator) sendClassic(now time.Time, id txn.ID, span uint64, ops []txn.Op) {
	tc := traceCtx(now, span)
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
		c.out.send(g.to, classicProposeBatchMsg{Txn: id, Coord: c.cfg.Addr, Options: g.ops, TC: tc})
	}
}

// regionBit maps a region to its bit in a mask over addrs (the region's
// index there). ok is false for regions outside addrs. A linear scan over a
// handful of replicas beats a map both on allocation and on lookup cost.
func regionBit(addrs []simnet.Addr, reg simnet.Region) (uint64, bool) {
	for i, a := range addrs {
		if a.Region == reg {
			return 1 << uint(i), true
		}
	}
	return 0, false
}

// recordReturnLeg times the network leg that carried a classic result back
// to the coordinator, parenting it to the sender's span.
func (c *Coordinator) recordReturnLeg(now time.Time, id txn.ID, tc TraceCtx) {
	if tc.Span == 0 || c.spans == nil {
		return
	}
	c.spans.Add(obs.Span{
		Txn: id, ID: obs.NewSpanID(), Parent: tc.Span,
		Stage: obs.StageVoteReturn,
		Start: time.Unix(0, tc.SentUnixNano), End: now,
	})
}

// recordVoteLegs records the network legs of a traced vote: the option RPC
// that carried the proposal to the replica, from the proposal's send (the
// transaction's start) to the replica's stamp, under the leg id the vote
// names, and the vote's return from that stamp to now. s is nil for a vote
// that arrived after the decision: its leg is dated from the quorum wait's
// start, the proposal's send, and its return, past the decision, is not a
// stage of the commit.
func (c *Coordinator) recordVoteLegs(now time.Time, s *commitState, b voteBatchMsg) {
	if b.TC.Span == 0 || c.spans == nil {
		return
	}
	stamp := time.Unix(0, b.TC.SentUnixNano)
	leg := obs.Span{Txn: b.Txn, ID: b.TC.Span, Stage: obs.StageOptionRPC, Region: string(b.Region), End: stamp}
	if s == nil {
		if qw, ok := c.spans.FirstSpan(b.Txn, obs.StageQuorumWait); ok {
			leg.Parent, leg.Start = qw.Parent, qw.Start
			c.spans.Add(leg)
		}
		return
	}
	leg.Parent, leg.Start = s.span, s.start
	legs := [2]obs.Span{leg, {
		Txn: b.Txn, ID: obs.NewSpanID(), Parent: b.TC.Span,
		Stage: obs.StageVoteReturn, Region: string(b.Region),
		Start: stamp, End: now,
	}}
	c.spans.AddBatch(legs[:])
}

// onVoteBatch folds one replica's votes on every option of a proposal into
// the commit state, in batch order — the proposal's submission order — so
// sinks observe one vote event per option in that order: duplicate
// suppression, quorum and fatality checks, and the learn, decide or
// fallback each vote triggers. Options whose fast quorum became unreachable
// are re-routed to their masters together, grouped per destination.
func (c *Coordinator) onVoteBatch(now time.Time, b voteBatchMsg) {
	s := c.active[b.Txn]
	if s == nil || s.decided {
		c.recordVoteLegs(now, nil, b)
		return
	}
	c.recordVoteLegs(now, s, b)
	bit, known := regionBit(c.cfg.Replicas, b.Region)
	n := c.N()
	fq := FastQuorum(n)
	var fallbacks []txn.Op
	for _, v := range b.Votes {
		if s.decided {
			// A fatal reject earlier in the batch decided the transaction;
			// the remaining votes are moot.
			break
		}
		st := s.opt(v.Key)
		if st == nil || st.status != optFast || !known || st.voted&bit != 0 {
			continue
		}
		st.voted |= bit
		if v.Accept {
			st.accepts++
		} else {
			st.rejects++
			if st.reason == ReasonNone {
				st.reason = v.Reason
			}
		}

		// Emit the vote before any learn/decide it triggers, so sinks see
		// vote counts that are consistent with option outcomes.
		elapsed := now.Sub(s.start)
		if c.obs != nil {
			c.obs.Vote(b.Region, v.Accept, elapsed)
		}
		c.out.progress(s.sink, ProgressEvent{Txn: s.id, Kind: KindVote, Key: v.Key,
			Region: b.Region, Accept: v.Accept, Reason: v.Reason, Elapsed: elapsed})

		switch {
		case st.accepts >= fq:
			c.learn(now, s, st, true, ReasonNone)
		case !v.Accept && v.Reason.Fatal():
			c.learn(now, s, st, false, v.Reason)
		case st.accepts+(n-bits.OnesCount64(st.voted)) < fq:
			// The fast quorum is out of reach. Under EarlyAbort, conflict
			// evidence (a pending or version reject pushed us here) dooms
			// the option now: the master holds the same pendings the
			// replicas voted against, so the classic round-trip would
			// reject too, half an RTT later. Learning the rejection here
			// decides the abort and broadcasts it, which clears this
			// transaction's sibling pendings at every replica — queued
			// dependents stop conflicting against a corpse. Lease/routing
			// rejects still want the classic path.
			if c.cfg.EarlyAbort && (st.reason == ReasonPending || st.reason.Fatal()) {
				c.EarlyAborts++
				c.learn(now, s, st, false, st.reason)
				continue
			}
			// Fall back to the master.
			st.status = optClassic
			st.reason = ReasonNone
			c.Fallbacks++
			if c.obs != nil {
				c.obs.Fallback()
			}
			c.out.progress(s.sink, ProgressEvent{Txn: s.id, Kind: KindFallback, Key: v.Key, Elapsed: elapsed})
			fallbacks = append(fallbacks, st.op)
		}
	}
	if len(fallbacks) > 0 {
		c.sendClassic(now, s.id, s.span, fallbacks)
	}
}

// onClassicResultBatch folds a master's coalesced verdicts for several
// options of one transaction into its commit state. A ReasonNotMaster
// bounce — the routed-to replica does not hold the key's master lease —
// re-resolves the master through MasterFor (which consults the freshest
// lease view) and retries, a bounded number of times.
func (c *Coordinator) onClassicResultBatch(now time.Time, b classicResultBatchMsg) {
	s := c.active[b.Txn]
	if s == nil || s.decided {
		return
	}
	c.recordReturnLeg(now, b.Txn, b.TC)
	for _, res := range b.Results {
		st := s.opt(res.Key)
		if s.decided {
			break
		} else if st == nil || st.status != optClassic {
			continue
		}
		if !res.Accepted && res.Reason == ReasonNotMaster && st.retries < maxMasterRetries {
			st.retries++
			c.MasterRedirects++
			c.sendClassic(now, s.id, s.span, []txn.Op{st.op})
			continue
		}
		c.learn(now, s, st, res.Accepted, res.Reason)
	}
}

// learn finalizes one option and, when conclusive for the whole
// transaction, decides it.
func (c *Coordinator) learn(now time.Time, s *commitState, st *optState, accepted bool, reason RejectReason) {
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

	c.out.progress(s.sink, ProgressEvent{Txn: s.id, Kind: KindOptionLearned, Key: st.op.Key,
		Accept: accepted, Reason: reason, Elapsed: now.Sub(s.start)})

	if !accepted {
		c.decide(now, s, false, reasonErr(reason))
		return
	}
	if s.open == 0 {
		c.decide(now, s, true, nil)
	}
}

// onTimeout aborts a transaction that outlived its commit timeout.
func (c *Coordinator) onTimeout(now time.Time, id txn.ID) {
	s := c.active[id]
	if s == nil || s.decided {
		return
	}
	c.Timeouts++
	if c.obs != nil {
		c.obs.Timeout()
	}
	c.decide(now, s, false, ErrTimeout)
}

// decide records the final decision, stops the commit timeout, broadcasts
// the decision to the replicas, and notifies the sink.
func (c *Coordinator) decide(now time.Time, s *commitState, commit bool, err error) {
	if s.decided {
		return
	}
	s.decided = true
	if c.cfg.CommitTimeout > 0 {
		c.out.add(output{kind: outStop, timer: &s.timer, ev: ProgressEvent{Txn: s.id}})
	}
	delete(c.active, s.id)

	d := decideMsg{Txn: s.id, Commit: commit, Options: s.ops}
	if s.span != 0 && c.spans != nil {
		c.spans.Add(obs.Span{
			Txn: s.id, ID: obs.NewSpanID(), Parent: s.span,
			Stage: obs.StageQuorumWait, Region: string(c.Region()),
			Start: s.start, End: now,
		})
		d.TC = traceCtx(now, s.span)
		d.Coord = c.cfg.Addr
	}
	var m any = d // boxed once for the whole broadcast
	for _, rep := range c.cfg.Replicas {
		c.out.send(rep, m)
	}
	c.finish(now, s, commit, err)
}

// finish reports a transaction's decision to the observer and its sink.
func (c *Coordinator) finish(now time.Time, s *commitState, commit bool, err error) {
	elapsed := now.Sub(s.start)
	if c.obs != nil {
		c.obs.Decided(commit, elapsed)
	}
	c.out.progress(s.sink, ProgressEvent{Txn: s.id, Kind: KindDecided, Accept: commit, Elapsed: elapsed})
	c.out.add(output{kind: outDecided, sink: s.sink, ev: ProgressEvent{Txn: s.id, Accept: commit}, err: err})
}

// Crash simulates a coordinator process failure: it leaves the network and
// every in-flight transaction fails over to its sink with ErrCrashed. No
// decide message is broadcast for them — the coordinator is the decision
// authority, so an undecided transaction dies with it and its pendings at
// the replicas are left for PendingTTL eviction, exactly as a real crashed
// coordinator would leave them.
func (c *Coordinator) Crash() { c.exec(crash{}) }

func (c *Coordinator) crash(now time.Time) {
	c.out.add(output{kind: outDeregister})
	if c.crashed {
		return
	}
	c.crashed = true
	for id, s := range c.active {
		s.decided = true
		if c.cfg.CommitTimeout > 0 {
			c.out.add(output{kind: outStop, timer: &s.timer, ev: ProgressEvent{Txn: id}})
		}
		delete(c.active, id)
		c.finish(now, s, false, ErrCrashed)
	}
}

// Restart rejoins a crashed coordinator to the network. Coordinators keep
// no durable state: recovery is simply re-registration with an empty
// in-flight table (the crash already failed every open transaction).
func (c *Coordinator) Restart() { c.exec(restart{}) }

// Crashed reports whether the coordinator is currently down.
func (c *Coordinator) Crashed() (down bool) {
	c.exec(query(func(time.Time) { down = c.crashed }))
	return down
}

// reasonErr maps a rejection reason to the error surfaced to applications.
func reasonErr(r RejectReason) error {
	switch r {
	case ReasonBound:
		return ErrBound
	case ReasonBallot:
		return ErrAmbiguous
	default: // version, pending, classic-owned, decided, not-master
		return ErrConflict
	}
}
