package mdcc

import (
	"sync"
	"time"

	"planet/internal/obs"
	"planet/internal/simnet"
	"planet/internal/txn"
	"planet/internal/vclock"
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
	cfg ReplicaConfig
	clk vclock.Clock // the network's clock

	// mu guards all protocol state, the records included; exec is the only
	// function that takes it. out is the running step's output buffer.
	mu      sync.Mutex
	out     *outBuf
	records map[string]*record // the keys the protocol has touched; see acquire
	slab    []record           // unused records, carved by acquire
	decided decidedSet
	masters map[string]*masterKey
	syncs   map[uint64]*syncWaiter
	syncSeq uint64 // the last SyncFrom request id
	crashed bool
	closed  bool // Close ran: the lease tick is over

	// leases holds the per-keyspace lease state (nil without
	// cfg.Leases). The lease tick (see lease.go) runs on tick, started at
	// tickStart.
	leases    map[simnet.Region]*leaseState
	tick      stepTimer
	tickStart time.Time

	// spans is the region's span shard (nil = tracing off), the one its
	// coordinator records into. slot names this replica's option-RPC legs
	// (obs.LegSpanID): its position in cfg.Peers plus one.
	spans *obs.SpanStore
	slot  int

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

// Replica.step's local inputs, besides queries and wire messages.
type (
	// leaseTick is the lease tick's timer firing; peerDown is the
	// transport reporting region's node down (PeerDown).
	leaseTick struct{}
	peerDown  struct{ region simnet.Region }
	// crash and restore are a process failure and its WAL recovery;
	// closeReplica is Close.
	crash        struct{}
	restore      struct{ entries []Entry }
	closeReplica struct{}
	// localRead is ReadLocal's query; step fills v and ok.
	localRead struct {
		key string
		v   Value
		ok  bool
	}
)

// exec runs one input through step and performs its outputs. It is the
// replica's executor and the only function that takes r.mu. The step's WAL
// entries are appended before the lock is released, so WAL order is apply
// order (two decides racing between apply and append could otherwise log
// in the opposite order, and a replay of physical writes would rebuild the
// wrong value); a traced entry's span times the append itself. Every other
// output is performed after the release, in emission order.
func (r *Replica) exec(in any) {
	b := outBufs.Get().(*outBuf)
	r.mu.Lock()
	r.out = b
	r.step(r.clk.Now(), in)
	r.out = nil
	for _, w := range b.wal {
		start := r.clk.Now()
		r.cfg.WAL.Append(w.e)
		if w.span > 0 {
			sp := &b.spans[w.span-1]
			sp.Start, sp.End = start, r.clk.Now()
		}
	}
	r.mu.Unlock()
	b.perform(r.cfg.Net, r.cfg.Addr, r.clk)
	outBufs.Put(b)
}

// step is the replica's transition function: it applies one input, at time
// now, to the replica's own state and emits the input's effects to r.out.
func (r *Replica) step(now time.Time, in any) {
	switch p := in.(type) {
	case query:
		p(now)
	case *localRead:
		p.v, p.ok = r.readLocal(p.key)
	case *reseed:
		r.reseed(p)
	case leaseTick:
		if !r.closed {
			r.leasePass(now)
			r.armTick(r.cfg.Leases.Term / 3)
		}
	case peerDown:
		r.leasePass(now)
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

// recv is the replica's transport handler.
func (r *Replica) recv(m simnet.Message) { r.exec(m.Payload) }

// SetSpans installs the replica's span store (nil disables tracing): its
// region's shard, which the region's coordinator records into too.
// Typically wired once at startup, before traffic.
func (r *Replica) SetSpans(st *obs.SpanStore) {
	r.exec(query(func(time.Time) { r.spans = st }))
}

// NewReplica constructs and registers a replica on cfg.Net.
func NewReplica(cfg ReplicaConfig) *Replica {
	if cfg.Seeds == nil {
		cfg.Seeds = new(SeedImage)
	}
	r := &Replica{
		cfg:     cfg,
		clk:     cfg.Net.Clock(),
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
	cfg.Seeds.attach(r)
	cfg.Net.Register(cfg.Addr, r.recv)
	if cfg.Leases != nil && len(cfg.Leases.Keyspaces) > 0 {
		r.exec(query(r.startTick))
	}
	return r
}

// PeerDown reports that the transport lost region's node: a master may be
// dead, so the lease policy runs a pass now instead of at the next tick.
// Expiry still gates every takeover.
func (r *Replica) PeerDown(region simnet.Region) { r.exec(peerDown{region}) }

// Close stops the replica's lease tick for good. The replica still answers
// queries; the transport's own Close silences it on the network.
func (r *Replica) Close() { r.exec(closeReplica{}) }

// Region returns the replica's region.
func (r *Replica) Region() simnet.Region { return r.cfg.Addr.Region }

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
	r.exec(&q)
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
	r.exec(query(func(time.Time) { m = r.decided.toMap() }))
	return m
}

// Snapshot returns the committed state of every key this replica holds,
// seeded keys it has not touched included. Used by anti-entropy checks and
// the chaos soak's replay-equality audit.
func (r *Replica) Snapshot() (m map[string]Value) {
	r.exec(query(func(time.Time) { m = r.snapshot() }))
	return m
}

// Crash simulates a process failure: the replica leaves the network and
// loses all in-memory state (records, pendings, decisions, master roles).
// Only the seed image and the WAL — the durable artifacts — survive for
// Restore to rebuild from.
func (r *Replica) Crash() { r.exec(crash{}) }

func (r *Replica) crash() {
	r.out.add(output{kind: outDeregister})
	r.crashed = true
	r.records = make(map[string]*record)
	r.decided = decidedSet{}
	r.masters = make(map[string]*masterKey)
	r.syncs = nil
	if r.leases != nil {
		r.leases = make(map[simnet.Region]*leaseState)
	}
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
	r.exec(restore{entries})
	return nil
}

// restore rebuilds state from the replayed WAL entries.
func (r *Replica) restore(now time.Time, entries []Entry) {
	r.records = make(map[string]*record)
	r.decided = decidedSet{}
	r.masters = make(map[string]*masterKey)
	if r.leases != nil {
		r.leases = make(map[simnet.Region]*leaseState)
	}
	var replaySpans []obs.Span
	for _, e := range entries {
		if e.Lease != nil {
			// A lease transition, not a decision: rebuild the lease view
			// (expired — clocks don't survive restarts) and leave the
			// decision memo alone.
			r.applyLeaseEntry(e.Lease)
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
	r.out.add(output{kind: outRegister, msg: simnet.Handler(r.recv)})
}

// Crashed reports whether the replica is currently down.
func (r *Replica) Crashed() (down bool) {
	r.exec(query(func(time.Time) { down = r.crashed }))
	return down
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
	r.exec(proposeMsg{Txn: id, Coord: coord, Options: ops})
}

// HandleDecide feeds a decision in as a coordinator's broadcast would.
func (r *Replica) HandleDecide(id txn.ID, commit bool, ops []txn.Op) {
	r.exec(decideMsg{Txn: id, Commit: commit, Options: ops})
}
