package mdcc

import (
	"sort"
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
}

// Replica is one region's full copy of the store. It plays three protocol
// roles: fast-path acceptor, classic-path acceptor, and master for the keys
// assigned to its region.
type Replica struct {
	cfg ReplicaConfig
	clk vclock.Clock // the network's clock

	// mu guards all protocol state, the records included.
	mu      sync.Mutex
	records map[string]*record // the keys the protocol has touched; see acquire
	slab    []record           // unused records, carved by acquire
	decided map[txn.ID]bool
	masters map[string]*masterKey
	syncs   map[uint64]*syncWaiter
	crashed bool

	// leaseCfg enables epoch-fenced master leases (see lease.go); leases
	// holds the per-keyspace lease state.
	leaseCfg *LeaseConfig
	leases   map[simnet.Region]*leaseState

	// spans is the local span store (nil = tracing off); traces is the
	// per-transaction trace state accumulated between proposal and decide,
	// flushed to the coordinator as a spanReportMsg when the transaction
	// decides.
	spans  *obs.SpanStore
	traces map[txn.ID]*replicaTrace

	// Stats exported for tests and experiments.
	FastAccepts  uint64
	FastRejects  uint64
	ClassicRuns  uint64
	Applied      uint64
	RecoveryRuns uint64
	// LeaseTakeovers counts keyspace leases this replica claimed away from
	// another holder (read via LeaseTakeoverCount).
	LeaseTakeovers uint64
	// LeaseFenced counts master-arbitrated messages rejected for carrying
	// a stale lease epoch.
	LeaseFenced uint64
}

// replicaTrace is the trace state one replica keeps for one in-flight
// traced transaction: where to flush spans, this replica's option-RPC span
// (the causal anchor the WAL persists), and the spans accumulated so far.
type replicaTrace struct {
	coord      simnet.Addr
	optionSpan uint64
	spans      []obs.Span
	at         time.Time // insertion time, for TTL eviction
}

// maxReplicaTraces bounds the per-transaction trace map against decide
// messages that never arrive faster than PendingTTL can reap them.
const maxReplicaTraces = 4096

// SetSpans installs the replica's local span store (nil disables tracing).
// Typically wired once at startup, before traffic.
func (r *Replica) SetSpans(st *obs.SpanStore) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = st
	if st != nil && r.traces == nil {
		r.traces = make(map[txn.ID]*replicaTrace)
	}
}

// evictTracesLocked reaps trace state older than PendingTTL (orphans of
// lost decides). Caller holds r.mu.
func (r *Replica) evictTracesLocked(now time.Time) {
	ttl := r.cfg.PendingTTL
	if ttl <= 0 {
		ttl = time.Minute
	}
	for id, tr := range r.traces {
		if now.Sub(tr.at) > ttl {
			delete(r.traces, id)
		}
	}
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
		decided: make(map[txn.ID]bool),
		masters: make(map[string]*masterKey),
	}
	cfg.Seeds.attach(r)
	cfg.Net.Register(cfg.Addr, r.recv)
	return r
}

// Addr returns the replica's network address.
func (r *Replica) Addr() simnet.Addr { return r.cfg.Addr }

// Region returns the replica's region.
func (r *Replica) Region() simnet.Region { return r.cfg.Addr.Region }

// SeedBytes seeds key=value in the replica's seed image (setup path), so
// every replica sharing the image starts from it.
func (r *Replica) SeedBytes(key string, value []byte) {
	r.cfg.Seeds.SeedBytes(key, value)
}

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
	r.mu.Lock()
	defer r.mu.Unlock()
	if rc := r.records[key]; rc != nil {
		return rc.value(), true
	}
	if r.crashed {
		return Value{}, false
	}
	rc, ok := r.cfg.Seeds.lookup(key)
	return rc.value(), ok
}

// DecidedCount reports how many transaction decisions this replica retains
// for idempotence/reordering protection.
func (r *Replica) DecidedCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.decided)
}

// CompactDecided drops up to keepLast of the oldest retained decisions,
// bounding memory on long-lived replicas. Transaction IDs are issue-
// ordered, so dropping the lowest IDs discards the decisions least likely
// to see straggler messages. Returns the number of entries removed.
//
// Operators should keep at least the last few thousand decisions: a
// proposal arriving after its decision was compacted is treated as new and
// votes again, which is harmless for aborted transactions (their pendings
// re-evict via PendingTTL) and unreachable for committed ones in a healthy
// deployment (the coordinator has long stopped retransmitting).
func (r *Replica) CompactDecided(keepLast int) int {
	if keepLast < 0 {
		keepLast = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	excess := len(r.decided) - keepLast
	if excess <= 0 {
		return 0
	}
	ids := make([]txn.ID, 0, len(r.decided))
	for id := range r.decided {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids[:excess] {
		delete(r.decided, id)
	}
	return excess
}

// Decisions returns a copy of every transaction verdict this replica
// retains. The multi-process harness compares these maps across nodes to
// assert agreement (no dual decisions) after crash-restart cycles.
func (r *Replica) Decisions() map[txn.ID]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[txn.ID]bool, len(r.decided))
	for id, commit := range r.decided {
		out[id] = commit
	}
	return out
}

// Snapshot returns the committed state of every key this replica holds,
// seeded keys it has not touched included. Used by anti-entropy checks and
// the chaos soak's replay-equality audit.
func (r *Replica) Snapshot() map[string]Value {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

// Crash simulates a process failure: the replica leaves the network and
// loses all in-memory state (records, pendings, decisions, master roles).
// Only the seed image and the WAL — the durable artifacts — survive for
// Restore to rebuild from.
func (r *Replica) Crash() {
	r.cfg.Net.Deregister(r.cfg.Addr)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.crashed = true
	r.records = make(map[string]*record)
	r.decided = make(map[txn.ID]bool)
	r.masters = make(map[string]*masterKey)
	r.syncs = nil
	if r.leases != nil {
		r.leases = make(map[simnet.Region]*leaseState)
	}
	if r.traces != nil {
		r.traces = make(map[txn.ID]*replicaTrace)
	}
}

// Restore recovers a crashed replica: committed state is the seed image plus
// a WAL replay (repopulating the decided map so straggler proposals and
// decides stay idempotent), then the replica rejoins the network. Only the
// keys the WAL names get records, so a restart costs O(WAL), not O(keys).
// Restoring a live replica is also safe — it reloads state from the same
// durable sources, which the soak harness uses to assert replay equality.
// Decisions whose decide message was lost before it reached this replica
// are not in its WAL and stay missing until anti-entropy (SyncFrom) repairs
// them, exactly like a healed partition.
func (r *Replica) Restore() error {
	r.mu.Lock()
	r.records = make(map[string]*record)
	r.decided = make(map[txn.ID]bool)
	r.masters = make(map[string]*masterKey)
	if r.leases != nil {
		r.leases = make(map[simnet.Region]*leaseState)
	}
	var err error
	var replaySpans []obs.Span
	if r.cfg.WAL != nil {
		now := r.clk.Now()
		err = r.cfg.WAL.Replay(func(e Entry) error {
			if e.Lease != nil {
				// A lease transition, not a decision: rebuild the lease
				// view (expired — clocks don't survive restarts) and leave
				// the decided map alone.
				r.applyLeaseEntryLocked(e.Lease)
				return nil
			}
			r.decided[e.Txn] = e.Commit
			if e.Commit {
				for _, op := range e.Options {
					r.acquire(op.Key).apply(op)
					r.Applied++
				}
			}
			if r.spans != nil && e.OptionSpan != 0 {
				// Re-link the replayed decision to the pre-crash option
				// span persisted with the entry, so the causal tree stays
				// stitched across a crash-restart cycle.
				replaySpans = append(replaySpans, obs.Span{
					Txn: e.Txn, ID: obs.NewSpanID(), Parent: e.OptionSpan,
					Stage: obs.StageReplicaWAL, Region: string(r.Region()),
					Note: "replay", Start: now, End: now,
				})
			}
			return nil
		})
	}
	r.RecoveryRuns++
	r.crashed = false
	st := r.spans
	r.mu.Unlock()
	st.AddBatch(replaySpans)
	if err != nil {
		return err
	}
	r.cfg.Net.Register(r.cfg.Addr, r.recv)
	return nil
}

// Crashed reports whether the replica is currently down.
func (r *Replica) Crashed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.crashed
}

// recv dispatches network messages.
func (r *Replica) recv(m simnet.Message) {
	r.mu.Lock()
	dead := r.crashed
	r.mu.Unlock()
	if dead {
		// A delivery that raced with Crash's deregistration: a dead
		// process handles nothing.
		return
	}
	switch p := m.Payload.(type) {
	case proposeMsg:
		r.onPropose(p)
	case decideMsg:
		r.onDecide(p)
	case classicProposeBatchMsg:
		r.onClassicProposeBatch(p)
	case phase1aMsg:
		r.onPhase1a(p)
	case phase1bMsg:
		r.onPhase1b(p)
	case phase2aBatchMsg:
		r.onPhase2aBatch(p)
	case phase2bBatchMsg:
		r.onPhase2bBatch(p)
	case readReq:
		r.onReadReq(p)
	case syncReq:
		r.onSyncReq(p)
	case syncResp:
		r.onSyncResp(p)
	case leaseRequestMsg:
		r.onLeaseRequest(p)
	case leaseGrantMsg:
		r.onLeaseGrant(p)
	}
}

// onPropose handles a fast-path proposal: validate each option against
// committed state and pendings, record accepted options, and vote. All
// options are validated under one lock acquisition and the verdicts leave
// as one coalesced vote batch.
func (r *Replica) onPropose(p proposeMsg) {
	now := r.clk.Now()
	votes := make([]optionVote, 0, len(p.Options))

	r.mu.Lock()
	if r.isDecided(p.Txn) {
		// Reordered proposal for an already-decided transaction: planting
		// pendings now would leave orphans. Report and stop.
		r.mu.Unlock()
		for _, op := range p.Options {
			votes = append(votes, optionVote{Key: op.Key, Reason: ReasonDecided})
		}
		r.sendVotes(p.Txn, p.Coord, votes, 0)
		return
	}
	span := r.beginTraceLocked(p.Txn, p.Coord, p.TC, now)
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
	r.mu.Unlock()

	r.sendVotes(p.Txn, p.Coord, votes, span)
}

// beginTraceLocked records the option-RPC network leg of a traced proposal
// and opens the transaction's trace state, returning the leg's span id (0
// when tracing is off or the proposal is untraced). The leg span is the
// causal anchor for everything this replica later records for the
// transaction — votes parent to it and the WAL persists it. Spans are held
// in the trace state and delivered only via the decide-time flush to the
// coordinator, never folded into the local store: in a single-process
// deployment the replica and coordinator share one store, and recording at
// both ends would double-count every span. Caller holds r.mu.
func (r *Replica) beginTraceLocked(id txn.ID, coord simnet.Addr, tc TraceCtx, now time.Time) uint64 {
	if r.spans == nil || tc.Span == 0 {
		return 0
	}
	leg := obs.Span{
		Txn: id, ID: obs.NewSpanID(), Parent: tc.Span,
		Stage: obs.StageOptionRPC, Region: string(r.Region()),
		Start: time.Unix(0, tc.SentUnixNano), End: now,
	}
	r.evictTracesLocked(now)
	if _, dup := r.traces[id]; !dup && len(r.traces) < maxReplicaTraces {
		r.traces[id] = &replicaTrace{coord: coord, optionSpan: leg.ID,
			spans: []obs.Span{leg}, at: now}
	}
	return leg.ID
}

// sendVotes replies with the replica's verdicts on a proposal as one
// voteBatchMsg, votes in proposal (submission) order. span, when non-zero,
// is the option-RPC leg the coordinator's vote-return span should parent to.
func (r *Replica) sendVotes(id txn.ID, coord simnet.Addr, votes []optionVote, span uint64) {
	var tc TraceCtx
	if span != 0 {
		tc = TraceCtx{Span: span, SentUnixNano: r.clk.Now().UnixNano()}
	}
	r.send(coord, voteBatchMsg{Txn: id, Region: r.Region(), Votes: votes, TC: tc})
}

// onDecide applies or discards a transaction's options. Decides are
// idempotent and may arrive before the proposal they decide.
func (r *Replica) onDecide(d decideMsg) {
	r.mu.Lock()
	if _, seen := r.decided[d.Txn]; seen {
		r.mu.Unlock()
		return
	}
	now := r.clk.Now()
	var tr *replicaTrace
	var decSpans []obs.Span
	optionSpan := uint64(0)
	st := r.spans
	if st != nil && d.TC.Span != 0 {
		if tr = r.traces[d.Txn]; tr != nil {
			delete(r.traces, d.Txn)
			optionSpan = tr.optionSpan
		}
		decSpans = append(decSpans, obs.Span{
			Txn: d.Txn, ID: obs.NewSpanID(), Parent: d.TC.Span,
			Stage: obs.StageDecideBroadcast, Region: string(r.Region()),
			Start: time.Unix(0, d.TC.SentUnixNano), End: now,
		})
	}
	r.decided[d.Txn] = d.Commit
	for _, op := range d.Options {
		rc := r.acquire(op.Key)
		rc.removePending(d.Txn)
		if d.Commit {
			rc.apply(op)
			r.Applied++
		}
		if ks := r.masters[op.Key]; ks != nil {
			delete(ks.inflight, d.Txn)
		}
	}
	// Log while still holding r.mu so WAL order matches apply order: two
	// decides racing between apply and append could otherwise log in the
	// opposite order, and a replay of physical (OpSet) writes would then
	// reconstruct the wrong final value.
	if r.cfg.WAL != nil {
		walStart := r.clk.Now()
		e := Entry{Txn: d.Txn, Commit: d.Commit, Options: d.Options, At: walStart}
		if len(decSpans) > 0 {
			// Persist the trace context so a post-crash replay can re-link
			// the decision to the pre-crash option span.
			e.TraceSpan = d.TC.Span
			e.OptionSpan = optionSpan
		}
		r.cfg.WAL.Append(e)
		if len(decSpans) > 0 {
			decSpans = append(decSpans, obs.Span{
				Txn: d.Txn, ID: obs.NewSpanID(), Parent: decSpans[0].ID,
				Stage: obs.StageReplicaWAL, Region: string(r.Region()),
				Start: walStart, End: r.clk.Now(),
			})
		}
	}
	r.mu.Unlock()

	if len(decSpans) == 0 {
		return
	}
	// Flush everything this replica recorded for the transaction to the
	// deciding coordinator, which owns the stitched tree. Classic-path
	// acceptors have no trace state (the proposal went to the master), so
	// they rely on the coordinator address carried by the decide.
	all := decSpans
	coord := d.Coord
	if tr != nil {
		all = append(tr.spans, decSpans...)
		if coord == (simnet.Addr{}) {
			coord = tr.coord
		}
	}
	if coord != (simnet.Addr{}) {
		r.send(coord, spanReportMsg{Txn: d.Txn, Spans: all})
	}
}

// send is a convenience wrapper.
func (r *Replica) send(to simnet.Addr, payload any) {
	r.cfg.Net.Send(r.cfg.Addr, to, payload)
}

// HandlePropose feeds a fast-path proposal into the replica as if it had
// arrived from coord over the network. Benchmarks and white-box tests use it
// to drive the prepare path without a coordinator.
func (r *Replica) HandlePropose(id txn.ID, coord simnet.Addr, ops []txn.Op) {
	r.onPropose(proposeMsg{Txn: id, Coord: coord, Options: ops})
}

// HandleDecide feeds a decision into the replica as if broadcast by a
// coordinator. Benchmarks and white-box tests use it with HandlePropose.
func (r *Replica) HandleDecide(id txn.ID, commit bool, ops []txn.Op) {
	r.onDecide(decideMsg{Txn: id, Commit: commit, Options: ops})
}
