package mdcc

import (
	"math/bits"
	"sort"
	"time"

	"planet/internal/simnet"
)

// Master leases (docs/PROTOCOL.md, "Master leases and failover"). Each
// keyspace — one per default master region — has a lease record (epoch,
// holder, expiry) replicated at every replica. A replica masters a
// keyspace's keys only while it holds the lease. Grant, renewal and takeover
// are one classic-Paxos-style round with the epoch as the ballot; every
// master-arbitrated message carries the sender's epoch, and acceptors fence
// stale ones. Epoch and holder changes are WAL-persisted.

// leaseBallotShift positions the lease epoch in the high bits of classic
// ballots, so any ballot issued under epoch E+1 dominates every ballot
// issued under epoch E regardless of per-key sequence numbers.
const leaseBallotShift = 32

// LeaseConfig enables epoch-fenced master leases on a replica.
type LeaseConfig struct {
	// Term is how long one grant is valid (already time-scaled). The
	// holder renews well inside the term; takeover waits the term out.
	Term time.Duration
	// KeyspaceOf maps a key to its keyspace. Required.
	KeyspaceOf func(key string) simnet.Region
	// Keyspaces lists the keyspaces the replica's lease tick claims,
	// renews and takes over. Empty: no tick runs, and the replica only
	// grants, fences and answers.
	Keyspaces []simnet.Region
	// OnEvent, when non-nil, observes lease transitions (acquire, renew,
	// takeover, deposal). Each call is an output of the replica's step,
	// performed after the replica's lock is released; it should be fast.
	OnEvent func(LeaseEvent)
}

// LeaseEventKind enumerates lease transitions.
type LeaseEventKind uint8

const (
	// LeaseAcquired: a fresh lease was won for a keyspace with no prior
	// holder.
	LeaseAcquired LeaseEventKind = iota
	// LeaseRenewed: the holder extended its current epoch.
	LeaseRenewed
	// LeaseTakeover: this replica claimed a keyspace away from another
	// (dead or partitioned) holder at a higher epoch.
	LeaseTakeover
	// LeaseDeposed: this replica learned a higher epoch is held elsewhere;
	// its own lease is fenced from now on.
	LeaseDeposed
)

var leaseEventNames = [...]string{"acquired", "renewed", "takeover", "deposed"}

// String implements fmt.Stringer.
func (k LeaseEventKind) String() string {
	if int(k) < len(leaseEventNames) {
		return leaseEventNames[k]
	}
	return "lease-event"
}

// LeaseEvent is one lease transition observed at a replica.
type LeaseEvent struct {
	Kind     LeaseEventKind
	Keyspace simnet.Region
	Epoch    uint64
	// Holder is the lease holder after the transition.
	Holder simnet.Region
	// Prev is the holder before the transition ("" if none).
	Prev simnet.Region
}

// LeaseInfo is one keyspace's lease as seen by a replica (the admin
// surface's row format).
type LeaseInfo struct {
	Keyspace string    `json:"keyspace"`
	Epoch    uint64    `json:"epoch"`
	Holder   string    `json:"holder"`
	Expiry   time.Time `json:"expiry"`
	// Held reports whether this replica holds the lease (unexpired, at the
	// granted epoch).
	Held bool `json:"held"`
	// HeldEpoch is the last epoch this replica held, even if it has since
	// expired or been deposed (what a restarted master replays from its
	// WAL).
	HeldEpoch uint64 `json:"held_epoch,omitempty"`
}

// leaseState is a replica's state for one keyspace's lease: the
// acceptor-side granted view, the holder-side held lease, and any round in
// flight.
type leaseState struct {
	// Granted view (acceptor role): the highest epoch this replica has
	// granted, to whom, and until when on this replica's clock.
	epoch  uint64
	holder simnet.Region
	expiry time.Time

	// Held lease (holder role): the last epoch this replica won a majority
	// for and its validity. heldEpoch survives deposal — a deposed master
	// keeps stamping it so peers can fence its straggler messages.
	heldEpoch  uint64
	heldExpiry time.Time

	// deposedAt dedups deposal events: the highest foreign epoch already
	// reported to the observer.
	deposedAt uint64

	round *leaseRound
}

// leaseRound is one in-flight grant/renew/takeover round.
type leaseRound struct {
	epoch   uint64
	expiry  time.Time
	grants  uint64 // bitmask over peer indices (see regionBit)
	nacks   uint64 // acceptors that rejected this round's epoch
	done    bool
	started time.Time
	// prevEpoch/prevHolder snapshot the granted view before the round's
	// self-grant, for classifying the win (acquire vs renew vs takeover).
	prevEpoch  uint64
	prevHolder simnet.Region
	// best* track the highest current view reported by a rejecting
	// acceptor. When enough nacks make a majority impossible, the round
	// fails and the proposer rolls its provisional self-grant back to this
	// view — so a restarted deposed master converges on the live holder
	// instead of proposing ever-higher epochs against an unexpired lease.
	bestEpoch  uint64
	bestHolder simnet.Region
	bestExpiry time.Time
}

// leaseRequestMsg asks every replica to grant (or extend) a keyspace lease.
type leaseRequestMsg struct {
	Keyspace        simnet.Region
	Epoch           uint64
	Holder          simnet.Region
	ExpiresUnixNano int64
	From            simnet.Addr
}

// leaseGrantMsg is an acceptor's reply: whether it granted the requested
// epoch, plus its current granted view so rejected requesters adopt the
// real holder (and learn they were deposed).
type leaseGrantMsg struct {
	Keyspace           simnet.Region
	Epoch              uint64
	OK                 bool
	CurEpoch           uint64
	CurHolder          simnet.Region
	CurExpiresUnixNano int64
	Region             simnet.Region
}

// leaseFor returns (creating if needed) the lease state for keyspace ks.
func (r *Replica) leaseFor(ks simnet.Region) *leaseState {
	ls := r.leases[ks]
	if ls == nil {
		ls = &leaseState{}
		r.leases[ks] = ls
	}
	return ls
}

// holdsLease reports whether this replica currently masters keyspace ks: it
// won the most recent epoch it knows of and the grant is unexpired.
func (r *Replica) holdsLease(ks simnet.Region, now time.Time) bool {
	ls := r.leases[ks]
	return ls != nil && ls.heldEpoch != 0 && ls.heldEpoch >= ls.epoch && now.Before(ls.heldExpiry)
}

// leaseEpoch returns the epoch this replica stamps on master-arbitrated
// messages for key: the last epoch it held for the key's keyspace (stale
// after deposal — deliberately, so peers fence it), or 0 when leases are
// off.
func (r *Replica) leaseEpoch(key string) uint64 {
	if r.cfg.Leases == nil {
		return 0
	}
	ls := r.leases[r.cfg.Leases.KeyspaceOf(key)]
	if ls == nil {
		return 0
	}
	return ls.heldEpoch
}

// leaseFenced reports whether a master-arbitrated message stamped with
// epoch must be rejected: the sender's lease epoch is older than the one
// this acceptor has granted for the key's keyspace. Unstamped messages
// (epoch 0: leases off, or a pre-lease sender) pass.
func (r *Replica) leaseFenced(key string, epoch uint64) bool {
	if epoch == 0 || r.cfg.Leases == nil {
		return false
	}
	ls := r.leases[r.cfg.Leases.KeyspaceOf(key)]
	return ls != nil && epoch < ls.epoch
}

// grant is the acceptor rule: grant each epoch to at most one holder, and a
// new epoch only when the current lease has lapsed on this replica's clock
// or the requester already holds it. An equal-epoch request from the
// current holder is a renewal and extends expiry. Returns whether the
// request was granted; epoch/holder changes are WAL-persisted.
func (r *Replica) grant(ls *leaseState, m leaseRequestMsg, now time.Time) bool {
	switch {
	case m.Epoch == 0 || m.Epoch < ls.epoch:
		return false
	case m.Epoch == ls.epoch:
		if ls.holder != m.Holder {
			return false
		}
		ls.expiry = time.Unix(0, m.ExpiresUnixNano)
		return true
	default:
		if ls.epoch != 0 && ls.holder != m.Holder && now.Before(ls.expiry) {
			return false
		}
		ls.epoch, ls.holder = m.Epoch, m.Holder
		ls.expiry = time.Unix(0, m.ExpiresUnixNano)
		r.walLease(m.Keyspace, ls.epoch, ls.holder, false, now)
		return true
	}
}

// walLease persists a lease transition so a restarted replica knows the
// last epoch it granted — and, for held=true, the last epoch it held.
func (r *Replica) walLease(ks simnet.Region, epoch uint64, holder simnet.Region, held bool, now time.Time) {
	if r.cfg.WAL == nil {
		return
	}
	r.out.appendWAL(Entry{At: now, Lease: &LeaseRecord{
		Keyspace: string(ks), Epoch: epoch, Holder: string(holder), Held: held,
	}}, false)
}

// applyLeaseEntry rebuilds lease state from one replayed WAL entry.
// Replayed leases come back *expired* (zero expiry): clocks are not
// trustworthy across a restart, so the replica re-acquires before
// mastering, and a deposed master discovers the higher epoch the moment it
// tries.
func (r *Replica) applyLeaseEntry(l *LeaseRecord) {
	if r.leases == nil {
		r.leases = make(map[simnet.Region]*leaseState)
	}
	ls := r.leaseFor(simnet.Region(l.Keyspace))
	if l.Epoch >= ls.epoch {
		ls.epoch, ls.holder = l.Epoch, simnet.Region(l.Holder)
		ls.expiry = time.Time{}
	}
	if l.Held && l.Epoch >= ls.heldEpoch {
		ls.heldEpoch = l.Epoch
		ls.heldExpiry = time.Time{}
	}
}

// The lease tick runs the lease policy inside the replica's step: every
// term/3, and at once when the transport reports a peer down (a master may
// be dead). It is armed as a step output on the replica's own timer, so a
// seeded run on the virtual clock replays it exactly. Per keyspace:
//   - holder: renew (well inside the term).
//   - never granted: the keyspace's namesake region claims it at once;
//     others step in only if it stays unclaimed for two full terms
//     (default holder dead at boot), staggered by rank.
//   - recorded holder without a live lease (fresh restart): re-acquire;
//     the round either renews or discovers the deposing epoch.
//   - lapsed under another holder: take over once expiry plus the stagger
//     has passed. Expiry gates every takeover; the stagger only keeps
//     candidates from dueling, which is safe (the grant round gives each
//     epoch to at most one winner) but wasteful.

// startTick records when the lease tick started and arms its first run.
func (r *Replica) startTick(now time.Time) {
	r.tickStart = now
	r.armTick(0)
}

func (r *Replica) armTick(d time.Duration) {
	r.out.add(output{kind: outArm, timer: &r.tick, d: d, fn: func() { r.exec(leaseTick{}) }})
}

// leasePass runs one pass of the lease policy over every keyspace: a tick's,
// or a peer-down's. A crashed replica's tick keeps its period but claims
// nothing.
func (r *Replica) leasePass(now time.Time) {
	if r.cfg.Leases == nil || r.closed || r.crashed {
		return
	}
	for _, ks := range r.cfg.Leases.Keyspaces {
		if r.claims(ks, now) {
			r.acquireLease(now, ks)
		}
	}
}

// claims reports whether the policy starts a round for keyspace ks now.
func (r *Replica) claims(ks simnet.Region, now time.Time) bool {
	ls, self := r.leases[ks], r.Region()
	switch {
	case r.holdsLease(ks, now):
		return true
	case ls == nil || ls.epoch == 0:
		return ks == self || now.Sub(r.tickStart) > 2*r.cfg.Leases.Term+r.stagger(ks)
	case ls.holder == self:
		return true
	default:
		return now.After(ls.expiry.Add(r.stagger(ls.holder)))
	}
}

// stagger ranks this region among the candidates (every region except the
// current holder, sorted) and spaces takeover attempts half a term apart by
// rank.
func (r *Replica) stagger(holder simnet.Region) time.Duration {
	rank := 0
	for _, p := range r.cfg.Peers {
		if p.Region != holder && p.Region < r.Region() {
			rank++
		}
	}
	return time.Duration(rank) * (r.cfg.Leases.Term / 2)
}

// acquireLease starts a lease round for keyspace ks: a renewal at the held
// epoch while the lease is live, otherwise a claim of the next epoch
// (bootstrap or takeover). No-op while a fresh round is already in flight.
// The round completes when a majority grants.
func (r *Replica) acquireLease(now time.Time, ks simnet.Region) {
	if r.cfg.Leases == nil || r.crashed {
		return
	}
	ls := r.leaseFor(ks)
	if ls.round != nil && !ls.round.done && now.Sub(ls.round.started) < r.cfg.Leases.Term {
		return
	}
	next := ls.epoch + 1
	if ls.heldEpoch >= next {
		next = ls.heldEpoch + 1
	}
	if r.holdsLease(ks, now) {
		next = ls.heldEpoch // renewal
	}
	round := &leaseRound{
		epoch: next, expiry: now.Add(r.cfg.Leases.Term), started: now,
		prevEpoch: ls.epoch, prevHolder: ls.holder,
	}
	ls.round = round
	req := leaseRequestMsg{Keyspace: ks, Epoch: next, Holder: r.Region(),
		ExpiresUnixNano: round.expiry.UnixNano(), From: r.cfg.Addr}
	// Self-grant synchronously; peers answer over the wire. Our own
	// acceptor can refuse (an unexpired lease granted elsewhere) — that
	// counts as a nack like any other.
	bit, _ := regionBit(r.cfg.Peers, r.Region())
	if r.grant(ls, req, now) {
		round.grants |= bit
	} else {
		round.nacks |= bit
		round.bestEpoch, round.bestHolder, round.bestExpiry = ls.epoch, ls.holder, ls.expiry
	}
	for _, peer := range r.cfg.Peers {
		if peer == r.cfg.Addr {
			continue
		}
		r.out.send(peer, req)
	}
	r.checkLeaseQuorum(ks, ls, now)
}

// onLeaseRequest is the acceptor side of a lease round.
func (r *Replica) onLeaseRequest(now time.Time, m leaseRequestMsg) {
	if r.cfg.Leases == nil {
		return
	}
	ls := r.leaseFor(m.Keyspace)
	// Deposals learned here are reported after the reply leaves.
	before, depBefore := r.deposal(ls, m.Keyspace)
	ok := r.grant(ls, m, now)
	var after LeaseEvent
	var depAfter bool
	if ok {
		after, depAfter = r.deposal(ls, m.Keyspace)
	}
	r.out.send(m.From, leaseGrantMsg{Keyspace: m.Keyspace, Epoch: m.Epoch, OK: ok,
		CurEpoch: ls.epoch, CurHolder: ls.holder,
		CurExpiresUnixNano: ls.expiry.UnixNano(), Region: r.Region()})
	if depBefore {
		r.leaseEvent(before)
	}
	if depAfter {
		r.leaseEvent(after)
	}
}

// onLeaseGrant is the requester side of grant collection. Every reply also
// carries the acceptor's granted view; a higher epoch there is adopted, so
// routing converges on the real holder and a deposed master finds out.
func (r *Replica) onLeaseGrant(now time.Time, m leaseGrantMsg) {
	if r.cfg.Leases == nil {
		return
	}
	ls := r.leaseFor(m.Keyspace)
	if m.CurEpoch > ls.epoch {
		ls.epoch, ls.holder = m.CurEpoch, m.CurHolder
		ls.expiry = time.Unix(0, m.CurExpiresUnixNano)
		r.walLease(m.Keyspace, ls.epoch, ls.holder, false, now)
		if ev, ok := r.deposal(ls, m.Keyspace); ok {
			r.leaseEvent(ev)
		}
	}
	round := ls.round
	if round == nil || round.done || m.Epoch != round.epoch {
		return
	}
	bit, known := regionBit(r.cfg.Peers, m.Region)
	if m.OK {
		if known {
			round.grants |= bit
		}
		r.checkLeaseQuorum(m.Keyspace, ls, now)
		return
	}
	if known {
		round.nacks |= bit
	}
	if m.CurEpoch > round.bestEpoch {
		round.bestEpoch, round.bestHolder = m.CurEpoch, m.CurHolder
		round.bestExpiry = time.Unix(0, m.CurExpiresUnixNano)
	}
	// Once enough acceptors have rejected the round that a majority of
	// grants is impossible, close it and roll the provisional self-grant
	// back to the highest view the rejectors reported. The rollback only
	// lowers a promise this replica made to itself for a round that can no
	// longer win — it never claims the failed epoch, and a future round
	// proposes above both views — so grant-at-most-one-holder still holds
	// per epoch.
	n := len(r.cfg.Peers)
	if n-bits.OnesCount64(round.nacks) >= ClassicQuorum(n) {
		return // a majority is still possible
	}
	round.done = true
	ls.round = nil
	if round.bestEpoch != 0 && ls.epoch == round.epoch && ls.holder == r.Region() && round.bestEpoch < ls.epoch {
		ls.epoch, ls.holder, ls.expiry = round.bestEpoch, round.bestHolder, round.bestExpiry
		if ev, ok := r.deposal(ls, m.Keyspace); ok {
			r.leaseEvent(ev)
		}
	}
}

// deposal returns a deposal event when the granted view moved past an epoch
// this replica held, once per such epoch. The held epoch is kept — a
// deposed master must keep stamping it so peers can fence its stragglers.
func (r *Replica) deposal(ls *leaseState, ks simnet.Region) (LeaseEvent, bool) {
	if ls.heldEpoch == 0 || ls.epoch <= ls.heldEpoch || ls.holder == r.Region() || ls.deposedAt == ls.epoch {
		return LeaseEvent{}, false
	}
	ls.deposedAt = ls.epoch
	return LeaseEvent{Kind: LeaseDeposed, Keyspace: ks, Epoch: ls.epoch,
		Holder: ls.holder, Prev: r.Region()}, true
}

// checkLeaseQuorum resolves an in-flight round once a majority has granted:
// the replica now holds the lease until the round's expiry. The win is
// classified for observers (acquire, renew, takeover) and held transitions
// are WAL-persisted.
func (r *Replica) checkLeaseQuorum(ks simnet.Region, ls *leaseState, now time.Time) {
	round := ls.round
	if round == nil || round.done || bits.OnesCount64(round.grants) < ClassicQuorum(len(r.cfg.Peers)) {
		return
	}
	round.done = true
	ls.round = nil

	renewal := round.epoch == ls.heldEpoch
	ls.heldEpoch = round.epoch
	ls.heldExpiry = round.expiry

	ev := LeaseEvent{Keyspace: ks, Epoch: round.epoch, Holder: r.Region(), Prev: round.prevHolder}
	switch {
	case renewal:
		ev.Kind = LeaseRenewed
	case round.prevEpoch == 0 || round.prevHolder == r.Region() || round.prevHolder == "":
		ev.Kind = LeaseAcquired
		r.walLease(ks, round.epoch, r.Region(), true, now)
	default:
		ev.Kind = LeaseTakeover
		r.LeaseTakeovers++
		r.walLease(ks, round.epoch, r.Region(), true, now)
	}
	r.leaseEvent(ev)
}

// leaseEvent emits a lease transition for the configured observer.
func (r *Replica) leaseEvent(ev LeaseEvent) {
	if f := r.cfg.Leases.OnEvent; f != nil {
		r.out.add(output{kind: outCall, fn: func() { f(ev) }})
	}
}

// Lease returns this replica's view of keyspace ks's lease: the holder,
// epoch and expiry it granted (zero values when it never granted one),
// whether it holds the lease itself, and the last epoch it held.
func (r *Replica) Lease(ks simnet.Region) (li LeaseInfo) {
	li.Keyspace = string(ks)
	r.exec(query(func(now time.Time) {
		if ls := r.leases[ks]; ls != nil {
			li = r.leaseInfo(ks, ls, now)
		}
	}))
	return li
}

func (r *Replica) leaseInfo(ks simnet.Region, ls *leaseState, now time.Time) LeaseInfo {
	return LeaseInfo{
		Keyspace: string(ks), Epoch: ls.epoch, Holder: string(ls.holder),
		Expiry: ls.expiry, Held: r.holdsLease(ks, now), HeldEpoch: ls.heldEpoch,
	}
}

// LeaseTable reports whether leased mastership is on, every keyspace lease
// this replica knows of (sorted), and how many it took over from another
// holder: the /v1/net/lease surface and planet_lease_takeovers_total.
func (r *Replica) LeaseTable() (enabled bool, leases []LeaseInfo, takeovers uint64) {
	r.exec(query(func(now time.Time) {
		enabled, takeovers = r.cfg.Leases != nil, r.LeaseTakeovers
		leases = make([]LeaseInfo, 0, len(r.leases))
		for ks, ls := range r.leases {
			leases = append(leases, r.leaseInfo(ks, ls, now))
		}
	}))
	sort.Slice(leases, func(i, j int) bool { return leases[i].Keyspace < leases[j].Keyspace })
	return enabled, leases, takeovers
}
