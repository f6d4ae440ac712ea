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

// onClassicProposeBatch handles every option of one transaction routed to
// this master: all of them are sequenced in one step, and everything they
// produce — results back to the coordinator, phase-1/2 traffic to peers —
// is staged, to leave as one message per destination. A traced proposal's
// option-RPC leg is recorded first, and reported to the coordinator; the
// per-option spans recorded later (arbitrations, results) parent to it.
func (r *Replica) onClassicProposeBatch(now time.Time, b classicProposeBatchMsg) {
	var tc TraceCtx
	if r.spans != nil && b.TC.Span != 0 {
		leg := obs.Span{
			Txn: b.Txn, ID: obs.NewSpanID(), Parent: b.TC.Span,
			Stage: obs.StageOptionRPC, Region: string(r.Region()), Note: "master",
			Start: time.Unix(0, b.TC.SentUnixNano), End: now,
		}
		r.out.stage(b.Coord, spanReportMsg{Txn: b.Txn, Spans: []obs.Span{leg}})
		tc.Span = leg.ID
	}
	for _, op := range b.Options {
		r.classicPropose(now, classicProposeMsg{Txn: b.Txn, Coord: b.Coord, Option: op, TC: tc})
	}
}

// stageResult stages a master's verdict on one option for its coordinator;
// a traced result carries span, which the coordinator's return leg parents to.
func (r *Replica) stageResult(now time.Time, coord simnet.Addr, id txn.ID, key string, accepted bool, reason RejectReason, span uint64) {
	r.out.stage(coord, classicResultMsg{Txn: id, Key: key, Accepted: accepted, Reason: reason, TC: traceCtx(now, span)})
}

// classicPropose is the master-side handling of one classic-path option:
// the first proposal for a key triggers phase 1 (taking ownership and
// running Fast Paxos recovery); later proposals are sequenced directly.
func (r *Replica) classicPropose(now time.Time, p classicProposeMsg) {
	if committed, seen := r.decided.get(p.Txn); seen {
		r.stageResult(now, p.Coord, p.Txn, p.Option.Key, committed, ReasonDecided, p.TC.Span)
		return
	}
	if r.cfg.Leases != nil {
		// Leased mastership: only the current lease holder may sequence.
		// Anyone else — including a deposed master that hasn't noticed yet —
		// bounces the proposal so the coordinator re-resolves the master.
		ksp := r.cfg.Leases.KeyspaceOf(p.Option.Key)
		if !r.holdsLease(ksp, now) {
			r.stageResult(now, p.Coord, p.Txn, p.Option.Key, false, ReasonNotMaster, p.TC.Span)
			return
		}
	}
	ks := r.masters[p.Option.Key]
	if ks == nil {
		ks = &masterKey{inflight: make(map[txn.ID]*masterOption)}
		r.masters[p.Option.Key] = ks
	}
	r.ClassicRuns++
	if ks.leased {
		r.sequence(now, ks, p)
		return
	}
	ks.queue = append(ks.queue, p)
	if ks.p1 == nil {
		r.startPhase1(now, p.Option.Key, ks)
	}
}

// coalesce folds one destination's staged payloads, in place, into their
// batch forms: classic results of the same transaction become one
// classicResultBatchMsg, phase-2a proposals become one phase2aBatchMsg.
// Every staged classicResultMsg and phase2aMsg is folded here, so neither
// type ever reaches the transport.
func coalesce(payloads []any) []any {
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
	return merged
}

// startPhase1 begins phase 1 for key at a fresh ballot. The replica
// promises to itself synchronously and stages phase 1a to its peers.
func (r *Replica) startPhase1(now time.Time, key string, ks *masterKey) {
	epoch := r.leaseEpoch(key)
	if epoch != 0 {
		// Fold the lease epoch into the ballot's high bits: a new master's
		// ballots dominate every ballot a deposed one ever issued, so its
		// phase 1 wins against acceptors that promised the old master.
		if floor := epoch << leaseBallotShift; ks.ballot < floor {
			ks.ballot = floor
		}
	}
	ks.ballot++
	selfBit, _ := regionBit(r.cfg.Peers, r.Region())
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

	for _, peer := range r.cfg.Peers {
		if peer == r.cfg.Addr {
			continue
		}
		r.out.stage(peer, phase1aMsg{Key: key, Ballot: ks.ballot, Master: r.cfg.Addr, Epoch: epoch})
	}
	// Degenerate single-replica cluster: quorum is already met.
	if bits.OnesCount64(run.oks) >= ClassicQuorum(len(r.cfg.Peers)) {
		r.finishPhase1(now, key, ks)
	}
}

// onPhase1a is the acceptor side of phase 1.
func (r *Replica) onPhase1a(m phase1aMsg) {
	rc := r.acquire(m.Key)
	ok := m.Ballot >= rc.promised
	if r.leaseFenced(m.Key, m.Epoch) {
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
	r.out.send(m.Master, resp)
}

// onPhase1b is the master side of phase 1 response collection.
func (r *Replica) onPhase1b(now time.Time, b phase1bMsg) {
	ks := r.masters[b.Key]
	if ks == nil || ks.p1 == nil || b.Ballot != ks.p1.ballot || !b.OK {
		return
	}
	run := ks.p1
	bit, known := regionBit(r.cfg.Peers, b.Region)
	if !known || run.oks&bit != 0 {
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
	if bits.OnesCount64(run.oks) >= ClassicQuorum(len(r.cfg.Peers)) {
		r.finishPhase1(now, b.Key, ks)
	}
}

// finishPhase1 completes ownership: re-propose any possibly fast-chosen
// options (coordinated recovery), then drain queued client proposals.
func (r *Replica) finishPhase1(now time.Time, key string, ks *masterKey) {
	run := ks.p1
	ks.p1 = nil
	ks.leased = true

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
		r.proposeAtMaster(now, ks, key, id, s.op, nil, TraceCtx{})
	}

	queue := ks.queue
	ks.queue = nil
	for _, p := range queue {
		r.sequence(now, ks, p)
	}
}

// sequence validates and proposes one client option at the master's
// ballot.
func (r *Replica) sequence(now time.Time, ks *masterKey, p classicProposeMsg) {
	key := p.Option.Key
	if committed, seen := r.decided.get(p.Txn); seen {
		r.stageResult(now, p.Coord, p.Txn, key, committed, ReasonDecided, p.TC.Span)
		return
	}
	if mo := ks.inflight[p.Txn]; mo != nil {
		// The option is already in flight (fast leftover recovered, or a
		// duplicate fallback): attach the coordinator to its outcome.
		if mo.done {
			r.stageResult(now, p.Coord, p.Txn, key,
				bits.OnesCount64(mo.accepts) >= ClassicQuorum(len(r.cfg.Peers)), ReasonNone, p.TC.Span)
			return
		}
		mo.coord = &p.Coord
		if mo.traceParent == 0 {
			mo.traceParent = p.TC.Span
			mo.traceStart = now
		}
		return
	}
	rc := r.acquire(key)
	rc.evictStale(now, r.cfg.PendingTTL)
	if reason := rc.validate(p.Option, ks.ballot, p.Txn); reason != ReasonNone {
		r.stageResult(now, p.Coord, p.Txn, key, false, reason, p.TC.Span)
		return
	}
	r.proposeAtMaster(now, ks, key, p.Txn, p.Option, &p.Coord, p.TC)
}

// proposeAtMaster runs phase 2 for one option: the master accepts locally,
// then asks its peers.
func (r *Replica) proposeAtMaster(now time.Time, ks *masterKey, key string, id txn.ID, op txn.Op, coord *simnet.Addr, tc TraceCtx) {
	rc := r.acquire(key)
	rc.evictConflictingBelow(op, ks.ballot, id)
	rc.addPending(id, op, ks.ballot, now)

	selfBit, _ := regionBit(r.cfg.Peers, r.Region())
	mo := &masterOption{
		id: id, op: op, ballot: ks.ballot,
		accepts:     selfBit,
		coord:       coord,
		traceParent: tc.Span,
		traceStart:  now,
	}
	ks.inflight[id] = mo

	epoch := r.leaseEpoch(key)
	for _, peer := range r.cfg.Peers {
		if peer == r.cfg.Addr {
			continue
		}
		r.out.stage(peer, phase2aMsg{Txn: id, Key: key,
			Ballot: ks.ballot, Option: op, Master: r.cfg.Addr, Epoch: epoch})
	}
	r.checkMasterQuorum(now, mo)
}

// onPhase2aBatch is the acceptor side of phase 2: it obeys each of a
// master's batched phase-2a proposals whose ballot is current and whose
// lease epoch (0 when leases are off) is not stale, and replies with one
// phase-2b batch.
func (r *Replica) onPhase2aBatch(now time.Time, b phase2aBatchMsg) {
	items := make([]phase2bItem, 0, len(b.Items))
	for _, m := range b.Items {
		var accept bool
		if r.leaseFenced(m.Key, b.Epoch) {
			r.LeaseFenced++
		} else if committed, seen := r.decided.get(m.Txn); seen {
			accept = committed
		} else if rc := r.acquire(m.Key); m.Ballot >= rc.promised {
			rc.promised = m.Ballot
			rc.evictConflictingBelow(m.Option, m.Ballot, m.Txn)
			rc.addPending(m.Txn, m.Option, m.Ballot, now)
			accept = true
		}
		items = append(items, phase2bItem{Txn: m.Txn, Key: m.Key, Ballot: m.Ballot, Accept: accept})
	}
	r.out.send(b.Master, phase2bBatchMsg{Region: r.Region(), Items: items})
}

// onPhase2bBatch is the master side of phase 2 quorum counting: it folds an
// acceptor's batched phase-2b verdicts into the in-flight options.
func (r *Replica) onPhase2bBatch(now time.Time, b phase2bBatchMsg) {
	for _, it := range b.Items {
		ks := r.masters[it.Key]
		if ks == nil {
			continue
		}
		mo := ks.inflight[it.Txn]
		if mo == nil || mo.ballot != it.Ballot || mo.done {
			continue
		}
		if it.Accept {
			bit, known := regionBit(r.cfg.Peers, b.Region)
			if !known {
				continue
			}
			mo.accepts |= bit
		} else {
			mo.rejects++
		}
		r.checkMasterQuorum(now, mo)
	}
}

// checkMasterQuorum resolves an in-flight option once its phase-2b votes
// are conclusive. For a traced option it first records the master's
// arbitration span — sequencing start to quorum resolution — and stages its
// report to the waiting coordinator, whose region's shard is the
// transaction's home.
func (r *Replica) checkMasterQuorum(now time.Time, mo *masterOption) {
	n := len(r.cfg.Peers)
	q := ClassicQuorum(n)
	var accepted bool
	var reason RejectReason
	switch {
	case bits.OnesCount64(mo.accepts) >= q:
		accepted = true
	case mo.rejects > n-q:
		reason = ReasonBallot
	default:
		return
	}
	mo.done = true
	if mo.coord == nil {
		return
	}
	if r.spans != nil && mo.traceParent != 0 {
		sp := obs.Span{
			Txn: mo.id, ID: obs.NewSpanID(), Parent: mo.traceParent,
			Stage: obs.StageMasterArbitrate, Region: string(r.Region()),
			Note: mo.op.Key, Start: mo.traceStart, End: now,
		}
		r.out.stage(*mo.coord, spanReportMsg{Txn: mo.id, Spans: []obs.Span{sp}})
	}
	r.stageResult(now, *mo.coord, mo.id, mo.op.Key, accepted, reason, mo.traceParent)
}
