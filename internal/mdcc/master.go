package mdcc

import (
	"math/bits"
	"sort"
	"time"

	"planet/internal/obs"
	"planet/internal/simnet"
	"planet/internal/txn"
)

// masterKey is the master-role state this replica keeps for one key it owns.
type masterKey struct {
	ballot   uint64
	leased   bool
	p1       *phase1Run
	queue    []classicProposeMsg
	inflight map[txn.ID]*masterOption
}

// phase1Run tracks an in-progress phase 1 (ownership + recovery discovery).
type phase1Run struct {
	ballot uint64
	oks    uint64 // bitmask over peer indices (see regionBit)
	seen   map[txn.ID]*seenOption
}

// seenOption counts how many phase-1b responses reported a pending option.
type seenOption struct {
	op    txn.Op
	count int
}

// masterOption tracks one option's phase-2 quorum at the master.
type masterOption struct {
	id      txn.ID
	op      txn.Op
	ballot  uint64
	accepts uint64 // bitmask over peer indices (see regionBit)
	rejects int
	// coord is the coordinator waiting for the result; nil for recovery
	// re-proposals, which have no direct requester.
	coord *simnet.Addr
	done  bool
	// traceParent is the master's option-RPC leg span this option's
	// arbitration span parents to (0 = untraced); traceStart is when the
	// master began sequencing the option.
	traceParent uint64
	traceStart  time.Time
}

// regionBit maps a region to its bit in quorum masks (the region's index in
// the peer list). ok is false for regions outside the peer set, whose votes
// are ignored. A linear scan over a handful of peers beats a map both on
// allocation and on lookup cost.
func (r *Replica) regionBit(reg simnet.Region) (uint64, bool) {
	for i, p := range r.cfg.Peers {
		if p.Region == reg {
			return 1 << uint(i), true
		}
	}
	return 0, false
}

// masterFor returns (creating if needed) the master state for key.
// Caller holds r.mu.
func (r *Replica) masterFor(key string) *masterKey {
	ks := r.masters[key]
	if ks == nil {
		ks = &masterKey{inflight: make(map[txn.ID]*masterOption)}
		r.masters[key] = ks
	}
	return ks
}

// onClassicProposeBatch handles every option of one transaction routed to
// this master: all of them are sequenced under a single lock acquisition,
// and everything they produce — results back to the coordinator, phase-1/2
// traffic to peers — leaves as one message per destination.
func (r *Replica) onClassicProposeBatch(b classicProposeBatchMsg) {
	r.mu.Lock()
	leg, out := r.masterLegLocked(b.Txn, b.Coord, b.TC, r.clk.Now())
	tc := TraceCtx{Span: leg}
	for _, op := range b.Options {
		out = append(out, r.classicProposeLocked(classicProposeMsg{
			Txn: b.Txn, Coord: b.Coord, Option: op, TC: tc})...)
	}
	r.mu.Unlock()
	r.flush(out)
}

// masterLegLocked records the option-RPC network leg of a traced classic
// proposal at the master and stages its report to the coordinator, returning
// the leg's span id (0 when untraced). Per-option spans recorded later —
// arbitrations, results — parent to this leg. Caller holds r.mu.
func (r *Replica) masterLegLocked(id txn.ID, coord simnet.Addr, tc TraceCtx, now time.Time) (uint64, []envelope) {
	if r.spans == nil || tc.Span == 0 {
		return 0, nil
	}
	leg := obs.Span{
		Txn: id, ID: obs.NewSpanID(), Parent: tc.Span,
		Stage: obs.StageOptionRPC, Region: string(r.Region()), Note: "master",
		Start: time.Unix(0, tc.SentUnixNano), End: now,
	}
	return leg.ID, []envelope{{coord, spanReportMsg{Txn: id, Spans: []obs.Span{leg}}}}
}

// resultTC stamps a classic result's trace context: the span the
// coordinator's vote-return leg should parent to, and the send time. Zero
// span means untraced and yields a zero context.
func (r *Replica) resultTC(span uint64) TraceCtx {
	if span == 0 {
		return TraceCtx{}
	}
	return TraceCtx{Span: span, SentUnixNano: r.clk.Now().UnixNano()}
}

// classicProposeLocked is the master-side handling of one classic-path
// option: the first proposal for a key triggers phase 1 (taking ownership
// and running Fast Paxos recovery); later proposals are sequenced directly.
// Caller holds r.mu; returns staged messages.
func (r *Replica) classicProposeLocked(p classicProposeMsg) []envelope {
	if committed, seen := r.decided.get(p.Txn); seen {
		return []envelope{{p.Coord, classicResultMsg{Txn: p.Txn, Key: p.Option.Key,
			Accepted: committed, Reason: ReasonDecided, TC: r.resultTC(p.TC.Span)}}}
	}
	if r.leaseCfg != nil {
		// Leased mastership: only the current lease holder may sequence.
		// Anyone else — including a deposed master that hasn't noticed yet —
		// bounces the proposal so the coordinator re-resolves the master.
		ksp := r.leaseCfg.KeyspaceOf(p.Option.Key)
		if !r.holdsLeaseLocked(ksp, r.clk.Now()) {
			return []envelope{{p.Coord, classicResultMsg{Txn: p.Txn, Key: p.Option.Key,
				Accepted: false, Reason: ReasonNotMaster, TC: r.resultTC(p.TC.Span)}}}
		}
	}
	ks := r.masterFor(p.Option.Key)
	r.ClassicRuns++
	if ks.leased {
		return r.sequenceLocked(ks, p)
	}
	ks.queue = append(ks.queue, p)
	if ks.p1 == nil {
		return r.startPhase1Locked(p.Option.Key, ks)
	}
	return nil
}

// envelope is an outgoing message staged while holding the lock.
type envelope struct {
	to      simnet.Addr
	payload any
}

// flush sends staged messages after the lock is released. It groups
// envelopes by destination — in staged (deterministic) order, never map
// order — so one handler invocation costs at most one wire message per
// destination; staged classic results and phase-2a proposals are folded
// into their batch forms on the way out.
func (r *Replica) flush(out []envelope) {
	if len(out) == 0 {
		return
	}
	// Group by destination in first-seen order. Quadratic in envelope count,
	// which is tiny (a handful of peers plus a coordinator or two).
	for i := 0; i < len(out); i++ {
		if out[i].payload == nil {
			continue // already claimed by an earlier destination group
		}
		to := out[i].to
		payloads := make([]any, 0, len(out)-i)
		for j := i; j < len(out); j++ {
			if out[j].payload != nil && out[j].to == to {
				payloads = append(payloads, out[j].payload)
				out[j].payload = nil
			}
		}
		r.sendCoalesced(to, payloads)
	}
}

// sendCoalesced ships one destination's staged payloads as a single wire
// message, first folding the staged per-option values into their batch
// forms: classic results of the same transaction become one
// classicResultBatchMsg, phase-2a proposals become one phase2aBatchMsg.
// Every staged classicResultMsg and phase2aMsg is folded here, so neither
// type ever reaches the transport.
func (r *Replica) sendCoalesced(to simnet.Addr, payloads []any) {
	merged := payloads[:0]
	for _, p := range payloads {
		switch m := p.(type) {
		case classicResultMsg:
			if i := len(merged) - 1; i >= 0 {
				if b, ok := merged[i].(classicResultBatchMsg); ok && b.Txn == m.Txn {
					b.Results = append(b.Results, optionResult{m.Key, m.Accepted, m.Reason})
					merged[i] = b
					continue
				}
			}
			// The batch adopts the first result's trace context; same-message
			// results share one option-RPC leg, so first-wins is consistent.
			merged = append(merged, classicResultBatchMsg{Txn: m.Txn, TC: m.TC,
				Results: []optionResult{{m.Key, m.Accepted, m.Reason}}})
		case phase2aMsg:
			if i := len(merged) - 1; i >= 0 {
				// Same-epoch proposals only: a master can hold different
				// keyspace leases at different epochs, and the batch carries
				// one epoch for all its items.
				if b, ok := merged[i].(phase2aBatchMsg); ok && b.Epoch == m.Epoch {
					b.Items = append(b.Items, phase2aItem{m.Txn, m.Key, m.Ballot, m.Option})
					merged[i] = b
					continue
				}
			}
			merged = append(merged, phase2aBatchMsg{Master: m.Master, Epoch: m.Epoch,
				Items: []phase2aItem{{m.Txn, m.Key, m.Ballot, m.Option}}})
		default:
			merged = append(merged, p)
		}
	}
	if len(merged) == 1 {
		r.send(to, merged[0])
		return
	}
	r.cfg.Net.SendBatch(r.cfg.Addr, to, merged)
}

// startPhase1Locked begins phase 1 for key at a fresh ballot. The replica
// promises to itself synchronously and broadcasts phase 1a to its peers.
// Caller holds r.mu; returns messages to send after unlock.
func (r *Replica) startPhase1Locked(key string, ks *masterKey) []envelope {
	epoch := r.leaseEpochLocked(key)
	if epoch != 0 {
		// Fold the lease epoch into the ballot's high bits: a new master's
		// ballots dominate every ballot a deposed one ever issued, so its
		// phase 1 wins against acceptors that promised the old master.
		if floor := epoch << leaseBallotShift; ks.ballot < floor {
			ks.ballot = floor
		}
	}
	ks.ballot++
	selfBit, _ := r.regionBit(r.Region())
	run := &phase1Run{
		ballot: ks.ballot,
		oks:    selfBit,
		seen:   make(map[txn.ID]*seenOption),
	}
	ks.p1 = run

	// Self-promise and self-report of pendings.
	rc := r.acquire(key)
	if ks.ballot > rc.promised {
		rc.promised = ks.ballot
	}
	for _, p := range rc.pending {
		run.seen[p.txn] = &seenOption{op: p.op, count: 1}
	}

	var out []envelope
	for _, peer := range r.cfg.Peers {
		if peer == r.cfg.Addr {
			continue
		}
		out = append(out, envelope{peer, phase1aMsg{Key: key, Ballot: ks.ballot, Master: r.cfg.Addr, Epoch: epoch}})
	}
	// Degenerate single-replica cluster: quorum is already met.
	if bits.OnesCount64(run.oks) >= ClassicQuorum(len(r.cfg.Peers)) {
		out = append(out, r.finishPhase1Locked(key, ks)...)
	}
	return out
}

// onPhase1a is the acceptor side of phase 1.
func (r *Replica) onPhase1a(m phase1aMsg) {
	r.mu.Lock()
	rc := r.acquire(m.Key)
	ok := m.Ballot >= rc.promised
	if r.leaseFencedLocked(m.Key, m.Epoch) {
		// The sender's lease epoch is older than the one this acceptor
		// granted: a deposed master. Fence it regardless of ballot.
		ok = false
		r.LeaseFenced++
	}
	if ok {
		rc.promised = m.Ballot
	}
	resp := phase1bMsg{Key: m.Key, Ballot: m.Ballot, OK: ok, Region: r.Region()}
	if ok {
		for _, p := range rc.pending {
			resp.Pending = append(resp.Pending, pendingSnapshot{Txn: p.txn, Option: p.op, Ballot: p.ballot})
		}
	}
	r.mu.Unlock()
	r.send(m.Master, resp)
}

// onPhase1b is the master side of phase 1 response collection.
func (r *Replica) onPhase1b(b phase1bMsg) {
	r.mu.Lock()
	ks := r.masters[b.Key]
	if ks == nil || ks.p1 == nil || b.Ballot != ks.p1.ballot || !b.OK {
		r.mu.Unlock()
		return
	}
	run := ks.p1
	bit, known := r.regionBit(b.Region)
	if !known || run.oks&bit != 0 {
		r.mu.Unlock()
		return
	}
	run.oks |= bit
	for _, ps := range b.Pending {
		if s := run.seen[ps.Txn]; s != nil {
			s.count++
		} else {
			run.seen[ps.Txn] = &seenOption{op: ps.Option, count: 1}
		}
	}
	var out []envelope
	if bits.OnesCount64(run.oks) >= ClassicQuorum(len(r.cfg.Peers)) {
		out = r.finishPhase1Locked(b.Key, ks)
	}
	r.mu.Unlock()
	r.flush(out)
}

// finishPhase1Locked completes ownership: re-propose any possibly
// fast-chosen options (coordinated recovery), then drain queued client
// proposals. Caller holds r.mu; returns staged messages.
func (r *Replica) finishPhase1Locked(key string, ks *masterKey) []envelope {
	run := ks.p1
	ks.p1 = nil
	ks.leased = true

	var out []envelope
	thr := recoveryThreshold(len(r.cfg.Peers))
	// Recover in transaction-ID order, not map order: re-proposal order
	// decides which conflicting leftover wins, and a run-dependent order
	// would break same-seed reproducibility.
	ids := make([]txn.ID, 0, len(run.seen))
	for id := range run.seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s := run.seen[id]
		if s.count < thr {
			continue
		}
		if _, seen := r.decided.get(id); seen {
			continue
		}
		// Possibly fast-chosen: must be fixed at the new ballot before
		// any competing value. Recovery skips validation by design.
		r.RecoveryRuns++
		out = append(out, r.proposeAtMasterLocked(ks, key, id, s.op, nil, TraceCtx{})...)
	}

	queue := ks.queue
	ks.queue = nil
	for _, p := range queue {
		out = append(out, r.sequenceLocked(ks, p)...)
	}
	return out
}

// sequenceLocked validates and proposes one client option at the master's
// ballot. Caller holds r.mu; returns staged messages.
func (r *Replica) sequenceLocked(ks *masterKey, p classicProposeMsg) []envelope {
	key := p.Option.Key
	if committed, seen := r.decided.get(p.Txn); seen {
		return []envelope{{p.Coord, classicResultMsg{Txn: p.Txn, Key: key,
			Accepted: committed, Reason: ReasonDecided, TC: r.resultTC(p.TC.Span)}}}
	}
	if mo := ks.inflight[p.Txn]; mo != nil {
		// The option is already in flight (fast leftover recovered, or a
		// duplicate fallback): attach the coordinator to its outcome.
		if mo.done {
			return []envelope{{p.Coord, classicResultMsg{Txn: p.Txn, Key: key,
				Accepted: bits.OnesCount64(mo.accepts) >= ClassicQuorum(len(r.cfg.Peers)),
				TC:       r.resultTC(p.TC.Span)}}}
		}
		mo.coord = &p.Coord
		if mo.traceParent == 0 {
			mo.traceParent = p.TC.Span
			mo.traceStart = r.clk.Now()
		}
		return nil
	}
	rc := r.acquire(key)
	rc.evictStale(r.clk.Now(), r.cfg.PendingTTL)
	reason := rc.validate(p.Option, ks.ballot, p.Txn)
	if reason != ReasonNone {
		return []envelope{{p.Coord, classicResultMsg{Txn: p.Txn, Key: key,
			Accepted: false, Reason: reason, TC: r.resultTC(p.TC.Span)}}}
	}
	return r.proposeAtMasterLocked(ks, key, p.Txn, p.Option, &p.Coord, p.TC)
}

// proposeAtMasterLocked runs phase 2 for one option: the master accepts
// locally, then asks its peers. Caller holds r.mu; returns staged messages.
func (r *Replica) proposeAtMasterLocked(ks *masterKey, key string, id txn.ID, op txn.Op, coord *simnet.Addr, tc TraceCtx) []envelope {
	now := r.clk.Now()
	rc := r.acquire(key)
	rc.evictConflictingBelow(op, ks.ballot, id)
	rc.addPending(id, op, ks.ballot, now)

	selfBit, _ := r.regionBit(r.Region())
	mo := &masterOption{
		id: id, op: op, ballot: ks.ballot,
		accepts:     selfBit,
		coord:       coord,
		traceParent: tc.Span,
		traceStart:  now,
	}
	ks.inflight[id] = mo

	epoch := r.leaseEpochLocked(key)
	var out []envelope
	for _, peer := range r.cfg.Peers {
		if peer == r.cfg.Addr {
			continue
		}
		out = append(out, envelope{peer, phase2aMsg{Txn: id, Key: key,
			Ballot: ks.ballot, Option: op, Master: r.cfg.Addr, Epoch: epoch}})
	}
	out = append(out, r.checkMasterQuorumLocked(ks, mo)...)
	return out
}

// onPhase2aBatch is the acceptor side of phase 2: it processes a master's
// batched phase-2a proposals under one lock acquisition, obeying each whose
// ballot is current, and replies with one coalesced phase-2b batch.
func (r *Replica) onPhase2aBatch(b phase2aBatchMsg) {
	items := make([]phase2bItem, 0, len(b.Items))
	r.mu.Lock()
	for _, it := range b.Items {
		items = append(items, r.phase2aLocked(it, b.Epoch))
	}
	r.mu.Unlock()
	r.send(b.Master, phase2bBatchMsg{Region: r.Region(), Items: items})
}

// phase2aLocked accepts or refuses one phase-2a proposal and returns the
// phase-2b verdict. epoch is the proposing master's lease epoch (0 when
// leases are off); stale epochs are fenced. Caller holds r.mu.
func (r *Replica) phase2aLocked(m phase2aItem, epoch uint64) phase2bItem {
	var accept bool
	if r.leaseFencedLocked(m.Key, epoch) {
		r.LeaseFenced++
	} else if committed, seen := r.decided.get(m.Txn); seen {
		accept = committed
	} else {
		rc := r.acquire(m.Key)
		if m.Ballot >= rc.promised {
			rc.promised = m.Ballot
			rc.evictConflictingBelow(m.Option, m.Ballot, m.Txn)
			rc.addPending(m.Txn, m.Option, m.Ballot, r.clk.Now())
			accept = true
		}
	}
	return phase2bItem{Txn: m.Txn, Key: m.Key, Ballot: m.Ballot, Accept: accept}
}

// onPhase2bBatch is the master side of phase 2 quorum counting: it folds an
// acceptor's batched phase-2b verdicts into the in-flight options under one
// lock acquisition. Options that become conclusive together have their
// coordinator results coalesced by flush.
func (r *Replica) onPhase2bBatch(b phase2bBatchMsg) {
	var out []envelope
	r.mu.Lock()
	for _, it := range b.Items {
		out = append(out, r.phase2bLocked(it, b.Region)...)
	}
	r.mu.Unlock()
	r.flush(out)
}

// phase2bLocked counts one phase-2b verdict toward its option's quorum.
// Caller holds r.mu; returns staged messages.
func (r *Replica) phase2bLocked(b phase2bItem, from simnet.Region) []envelope {
	ks := r.masters[b.Key]
	if ks == nil {
		return nil
	}
	mo := ks.inflight[b.Txn]
	if mo == nil || mo.ballot != b.Ballot || mo.done {
		return nil
	}
	if b.Accept {
		bit, known := r.regionBit(from)
		if !known {
			return nil
		}
		mo.accepts |= bit
	} else {
		mo.rejects++
	}
	return r.checkMasterQuorumLocked(ks, mo)
}

// checkMasterQuorumLocked resolves an in-flight option once its phase-2b
// votes are conclusive. Caller holds r.mu; returns staged messages.
func (r *Replica) checkMasterQuorumLocked(ks *masterKey, mo *masterOption) []envelope {
	n := len(r.cfg.Peers)
	q := ClassicQuorum(n)
	switch {
	case bits.OnesCount64(mo.accepts) >= q:
		mo.done = true
		out := r.masterArbitratedLocked(mo)
		if mo.coord != nil {
			out = append(out, envelope{*mo.coord, classicResultMsg{Txn: mo.id, Key: mo.op.Key,
				Accepted: true, TC: r.resultTC(mo.traceParent)}})
		}
		return out
	case mo.rejects > n-q:
		mo.done = true
		out := r.masterArbitratedLocked(mo)
		if mo.coord != nil {
			out = append(out, envelope{*mo.coord, classicResultMsg{Txn: mo.id, Key: mo.op.Key,
				Accepted: false, Reason: ReasonBallot, TC: r.resultTC(mo.traceParent)}})
		}
		return out
	}
	return nil
}

// masterArbitratedLocked records the master's arbitration span for a traced
// option — sequencing start to quorum resolution — and stages its report to
// the waiting coordinator (spans reach the store only through that flush;
// see beginTraceLocked). Caller holds r.mu.
func (r *Replica) masterArbitratedLocked(mo *masterOption) []envelope {
	if r.spans == nil || mo.traceParent == 0 || mo.coord == nil {
		return nil
	}
	sp := obs.Span{
		Txn: mo.id, ID: obs.NewSpanID(), Parent: mo.traceParent,
		Stage: obs.StageMasterArbitrate, Region: string(r.Region()),
		Note: mo.op.Key, Start: mo.traceStart, End: r.clk.Now(),
	}
	return []envelope{{*mo.coord, spanReportMsg{Txn: mo.id, Spans: []obs.Span{sp}}}}
}
