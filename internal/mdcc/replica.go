package mdcc

import (
	"time"

	"planet/internal/obs"
	"planet/internal/simnet"
	"planet/internal/txn"
)

// ReplicaConfig parameterizes one region's replica.
type ReplicaConfig struct {
	// Net is the transport (simnet.Network or realnet.Transport). Required.
	Net Transport
	// Addr is this replica's address. Required.
	Addr simnet.Addr
	// Peers lists all replica addresses including this one. Required.
	Peers []simnet.Addr
	// PendingTTL evicts pending options whose decide message was lost.
	// Zero disables eviction.
	PendingTTL time.Duration
	// WAL, when non-nil, receives an entry for every decided transaction.
	WAL *WAL
	// Seeds is the seed image the replica builds its records from; replicas
	// that start from the same data share one. Nil gives the replica a
	// private image.
	Seeds *SeedImage
	// Leases, when non-nil, switches the replica to epoch-fenced master
	// leases (see lease.go); nil keeps mastership static.
	Leases *LeaseConfig
}

// Replica is one region's full copy of the store. It plays three protocol
// roles: fast-path acceptor, classic-path acceptor, and master for the keys
// assigned to its region. It changes state only inside step (see the
// package doc, Execution); the unexported methods below step run inside it.
type Replica struct {
	actor
	cfg ReplicaConfig

	records map[string]*record // the keys the protocol has touched; see acquire
	slab    []record           // unused records, carved by acquire
	decided decidedSet
	masters map[string]*masterKey
	syncs   map[uint64]*syncWaiter
	syncSeq uint64 // the last SyncFrom request id
	closed  bool   // Close ran: the lease tick is over

	// leases holds the per-keyspace lease state (nil without
	// cfg.Leases). The lease tick (see lease.go) runs on tick, started at
	// tickStart.
	leases    map[simnet.Region]*leaseState
	tick      stepTimer
	tickStart time.Time
	viewSeq   uint64 // the last lease view's number (setView); kept across a crash

	// slot names this replica's option-RPC legs (obs.LegSpanID): its
	// position in cfg.Peers plus one.
	slot int

	// Stats exported for tests and experiments.
	FastAccepts  uint64
	FastRejects  uint64
	ClassicRuns  uint64
	Applied      uint64
	RecoveryRuns uint64
	// LeaseTakeovers counts keyspace leases this replica claimed away from
	// another holder (read via LeaseTable).
	LeaseTakeovers uint64
	// LeaseFenced counts master-arbitrated messages rejected for carrying
	// a stale lease epoch.
	LeaseFenced uint64
}

// Replica.step's own local inputs, besides queries and wire messages.
type (
	// leaseTick is the lease tick's timer firing.
	leaseTick struct{}
	// restore is a crash's WAL recovery; closeReplica is Close.
	restore      struct{ entries []Entry }
	closeReplica struct{}
	// localRead is ReadLocal's query; step fills v and ok.
	localRead struct {
		key string
		v   Value
		ok  bool
	}
)

// step is the replica's transition function: it applies one input, at time
// now, to the replica's own state and emits the input's effects to r.out.
// A message's sender region, from, is unused.
func (r *Replica) step(now time.Time, _ simnet.Region, in any) {
	switch p := in.(type) {
	case query:
		p(now)
	case start:
		r.out.add(output{kind: outRegister})
		if l := r.cfg.Leases; l != nil && len(l.Keyspaces) > 0 {
			r.tickStart = now
			r.armTick(0)
		}
	case *localRead:
		p.v, p.ok = r.readLocal(p.key)
	case *reseed:
		r.reseed(p)
	case leaseTick:
		if !r.closed {
			r.leasePass(now)
			r.armTick(r.cfg.Leases.Term / 3)
		}
	case *syncCall:
		r.syncCall(p)
	case crash:
		r.crash()
	case restore:
		r.restore(now, p.entries)
	case closeReplica:
		r.closed = true
		r.out.add(output{kind: outStop, timer: &r.tick})
	default:
		// A delivery that raced with Crash's deregistration: a dead process
		// handles nothing.
		if !r.crashed {
			r.deliver(now, in)
		}
	}
}

// deliver dispatches a network message.
func (r *Replica) deliver(now time.Time, m any) {
	switch p := m.(type) {
	case proposeMsg:
		r.onPropose(now, p)
	case decideMsg:
		r.onDecide(now, p)
	case classicProposeBatchMsg:
		r.onClassicProposeBatch(now, p)
	case phase1aMsg:
		r.onPhase1a(p)
	case phase1bMsg:
		r.onPhase1b(now, p)
	case phase2aBatchMsg:
		r.onPhase2aBatch(now, p)
	case phase2bBatchMsg:
		r.onPhase2bBatch(now, p)
	case readReq: // answer a quorum read with local committed state
		v, ok := r.readLocal(p.Key)
		r.out.send(p.From, readResp{ReqID: p.ReqID, Key: p.Key, Found: ok, Value: v, Region: r.Region()})
	case syncReq: // donate a committed snapshot to anti-entropy
		r.out.send(p.From, syncResp{ReqID: p.ReqID, Records: r.snapshot()})
	case syncResp:
		r.onSyncResp(p)
	case leaseRequestMsg:
		r.onLeaseRequest(now, p)
	case leaseGrantMsg:
		r.onLeaseGrant(now, p)
	}
}

// NewReplica constructs a replica and joins it to cfg.Net.
func NewReplica(cfg ReplicaConfig) *Replica {
	r := newReplica(cfg)
	r.exec("", start{})
	return r
}

// newReplica builds a replica's state without touching cfg.Net: a start
// input joins it, and, with leases, starts the lease tick.
func newReplica(cfg ReplicaConfig) *Replica {
	if cfg.Seeds == nil {
		cfg.Seeds = new(SeedImage)
	}
	r := &Replica{
		cfg:     cfg,
		records: make(map[string]*record),
		masters: make(map[string]*masterKey),
		slot:    len(cfg.Peers) + 1,
	}
	for i, p := range cfg.Peers {
		if p == cfg.Addr {
			r.slot = i + 1
		}
	}
	if cfg.Leases != nil {
		r.leases = make(map[simnet.Region]*leaseState)
	}
	r.bind(r, cfg.Net, cfg.Addr, cfg.WAL)
	cfg.Seeds.attach(r)
	return r
}

// Close stops the replica's lease tick for good. The replica still answers
// queries; the transport's own Close silences it on the network.
func (r *Replica) Close() { r.exec("", closeReplica{}) }

// SeedInt seeds an integer value with integrity bounds in the replica's seed
// image.
func (r *Replica) SeedInt(key string, value, lo, hi int64) {
	r.cfg.Seeds.SeedInt(key, value, lo, hi)
}

// ReadLocal returns the committed state of key at this replica: its record,
// or the seeded value at version 0 for a key the protocol has not touched.
// The second result reports whether the key exists; a crashed replica holds
// no key.
func (r *Replica) ReadLocal(key string) (Value, bool) {
	q := localRead{key: key}
	r.exec("", &q)
	return q.v, q.ok
}

func (r *Replica) readLocal(key string) (Value, bool) {
	if rc := r.records[key]; rc != nil {
		return rc.value(), true
	}
	if r.crashed {
		return Value{}, false
	}
	rc, ok := r.cfg.Seeds.lookup(key)
	return rc.value(), ok
}

// Decisions returns a copy of every transaction verdict this replica
// retains. The multi-process harness compares these maps across nodes to
// assert agreement (no dual decisions) after crash-restart cycles.
func (r *Replica) Decisions() (m map[txn.ID]bool) {
	r.exec("", query(func(time.Time) { m = r.decided.toMap() }))
	return m
}

// Snapshot returns the committed state of every key this replica holds,
// seeded keys it has not touched included. Used by anti-entropy checks and
// the chaos soak's replay-equality audit.
func (r *Replica) Snapshot() (m map[string]Value) {
	r.exec("", query(func(time.Time) { m = r.snapshot() }))
	return m
}

func (r *Replica) crash() {
	r.out.add(output{kind: outDeregister})
	r.crashed = true
	r.records = make(map[string]*record)
	r.decided = decidedSet{}
	r.masters = make(map[string]*masterKey)
	r.syncs = nil
	r.dropLeases()
}

// Restore recovers a crashed replica: committed state is the seed image plus
// a WAL replay (repopulating the decision memo so straggler proposals and
// decides stay idempotent), then the replica rejoins the network. Only the
// keys the WAL names get records, so a restart costs O(WAL), not O(keys).
// Restoring a live replica that nothing else steps meanwhile is also safe
// (the soak harness asserts replay equality so). Decisions whose decide
// never reached this replica are not in its WAL and stay missing until
// anti-entropy (SyncFrom) repairs them, exactly like a healed partition.
func (r *Replica) Restore() error {
	var entries []Entry
	if r.cfg.WAL != nil {
		r.cfg.WAL.Replay(func(e Entry) error {
			entries = append(entries, e)
			return nil
		})
	}
	r.exec("", restore{entries})
	return nil
}

// restore rebuilds state from the replayed WAL entries.
func (r *Replica) restore(now time.Time, entries []Entry) {
	r.records = make(map[string]*record)
	r.decided = decidedSet{}
	r.masters = make(map[string]*masterKey)
	r.dropLeases()
	var replaySpans []obs.Span
	for _, e := range entries {
		if e.Lease != nil {
			// A lease transition, not a decision: rebuild the lease view
			// and leave the decision memo alone.
			r.applyLeaseEntry(now, e.Lease)
			continue
		}
		r.decided.set(e.Txn, e.Commit)
		if e.Commit {
			for _, op := range e.Options {
				r.acquire(op.Key).apply(op)
				r.Applied++
			}
		}
		if r.spans != nil && e.OptionSpan != 0 {
			// Re-link the replayed decision to the pre-crash option span
			// persisted with the entry, so the causal tree stays stitched
			// across a crash-restart cycle.
			replaySpans = append(replaySpans, obs.Span{
				Txn: e.Txn, ID: obs.NewSpanID(), Parent: e.OptionSpan,
				Stage: obs.StageReplicaWAL, Region: string(r.Region()),
				Note: "replay", Start: now, End: now,
			})
		}
	}
	r.RecoveryRuns++
	r.crashed = false
	r.spans.AddBatch(replaySpans)
	r.out.add(output{kind: outRegister})
	// The replay dropped any round in flight: claim again now, as
	// construction does, not a tick later.
	r.leasePass(now)
}

// onPropose handles a fast-path proposal: validate each option against
// committed state and pendings, record accepted options, and vote. The
// verdicts leave as one voteBatchMsg, in proposal (submission) order.
func (r *Replica) onPropose(now time.Time, p proposeMsg) {
	votes := make([]optionVote, 0, len(p.Options))
	if _, seen := r.decided.get(p.Txn); seen {
		// Reordered proposal for an already-decided transaction: planting
		// pendings now would leave orphans. Report and stop.
		for _, op := range p.Options {
			votes = append(votes, optionVote{Key: op.Key, Reason: ReasonDecided})
		}
		r.out.send(p.Coord, voteBatchMsg{Txn: p.Txn, Region: r.Region(), Votes: votes})
		return
	}
	// The vote names this replica's option-RPC leg, from which the
	// coordinator records the leg and the vote's return.
	var tc TraceCtx
	if r.spans != nil && p.TC.Span != 0 {
		tc = traceCtx(now, obs.LegSpanID(p.TC.Span, r.slot))
	}
	for _, op := range p.Options {
		rc := r.acquire(op.Key)
		rc.evictStale(now, r.cfg.PendingTTL)
		reason := rc.validate(op, 0, p.Txn)
		if reason == ReasonNone {
			rc.addPending(p.Txn, op, 0, now)
			r.FastAccepts++
		} else {
			r.FastRejects++
		}
		votes = append(votes, optionVote{Key: op.Key,
			Accept: reason == ReasonNone, Reason: reason})
	}
	r.out.send(p.Coord, voteBatchMsg{Txn: p.Txn, Region: r.Region(), Votes: votes, TC: tc})
}

// onDecide applies or discards a transaction's options. Decides are
// idempotent and may arrive before the proposal they decide. A traced
// decide records the decision's network leg and, with a WAL, the append
// (exec stamps its times), and hands both to the deciding coordinator's
// region: into the shared store when that is this region, else as a
// spanReportMsg.
func (r *Replica) onDecide(now time.Time, d decideMsg) {
	if _, seen := r.decided.get(d.Txn); seen {
		return
	}
	traced := r.spans != nil && d.TC.Span != 0
	r.decided.set(d.Txn, d.Commit)
	accepted := false // the replica accepted an option of the transaction on the fast path
	for _, op := range d.Options {
		rc := r.acquire(op.Key)
		if ballot, ok := rc.removePending(d.Txn); ok && ballot == 0 {
			accepted = true
		}
		if d.Commit {
			rc.apply(op)
			r.Applied++
		}
		if ks := r.masters[op.Key]; ks != nil {
			delete(ks.inflight, d.Txn)
		}
	}
	var bcast uint64
	if traced {
		bcast = obs.NewSpanID()
		r.out.span(obs.Span{
			Txn: d.Txn, ID: bcast, Parent: d.TC.Span,
			Stage: obs.StageDecideBroadcast, Region: string(r.Region()),
			Start: time.Unix(0, d.TC.SentUnixNano), End: now,
		})
	}
	if r.cfg.WAL != nil {
		e := Entry{Txn: d.Txn, Commit: d.Commit, Options: d.Options, At: now}
		if traced {
			// Persist the trace context so a post-crash replay can re-link
			// the decision to the pre-crash option-RPC leg, and time the
			// append.
			e.TraceSpan = d.TC.Span
			if accepted {
				e.OptionSpan = obs.LegSpanID(d.TC.Span, r.slot)
			}
			r.out.span(obs.Span{
				Txn: d.Txn, ID: obs.NewSpanID(), Parent: bcast,
				Stage: obs.StageReplicaWAL, Region: string(r.Region()),
			})
		}
		r.out.appendWAL(e, traced)
	}
	if traced && d.Coord != (simnet.Addr{}) {
		var local *obs.SpanStore
		if d.Coord.Region == r.Region() {
			local = r.spans
		}
		r.out.flushSpans(d.Txn, d.Coord, local)
	}
}

// HandlePropose feeds a fast-path proposal into the replica as if it had
// arrived from coord (benchmarks drive the prepare path with it).
func (r *Replica) HandlePropose(id txn.ID, coord simnet.Addr, ops []txn.Op) {
	r.exec("", proposeMsg{Txn: id, Coord: coord, Options: ops})
}

// HandleDecide feeds a decision in as a coordinator's broadcast would.
func (r *Replica) HandleDecide(id txn.ID, commit bool, ops []txn.Op) {
	r.exec("", decideMsg{Txn: id, Commit: commit, Options: ops})
}
