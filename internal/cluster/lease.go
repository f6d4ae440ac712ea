package cluster

import (
	"slices"
	"sync"
	"time"

	"planet/internal/mdcc"
	"planet/internal/realnet"
	"planet/internal/simnet"
	"planet/internal/vclock"
)

// leaseMasterFor builds a coordinator routing function that consults the
// local replica's lease view: keys route to the keyspace's current lease
// holder, falling back to the keyspace's namesake region before any lease
// has ever been granted (which matches the static assignment exactly).
// Stale routes are corrected by the not-master bounce: a replica without
// the lease rejects the proposal and the coordinator re-resolves.
func leaseMasterFor(rep *mdcc.Replica, keyspaceOf func(string) simnet.Region) func(string) simnet.Addr {
	return func(key string) simnet.Addr {
		ks := keyspaceOf(key)
		if li := rep.Lease(ks); li.Epoch != 0 {
			return simnet.Addr{Region: simnet.Region(li.Holder), Name: replicaName}
		}
		return simnet.Addr{Region: ks, Name: replicaName}
	}
}

// leaseManager drives one replica's lease acquisition, renewal, and
// takeover decisions. It ticks on the cluster's clock — the virtual clock
// in simnet deployments (keeping seeded runs deterministic) and the real
// clock in node mode — every term/3, and in node mode a realnet peer-down
// transition pokes it immediately so a dead master's keyspaces are
// reclaimed as soon as their leases lapse, not a tick later.
//
// Policy per keyspace:
//   - holder: renew every tick (well inside the term).
//   - never granted: the keyspace's namesake region claims it; others step
//     in only if it stays unclaimed for two full terms (default holder dead
//     at boot), staggered by rank.
//   - recorded holder without a live lease (fresh restart): re-acquire —
//     the round either renews or discovers the deposing epoch.
//   - lapsed under another holder: take over, staggered by each candidate's
//     rank among the surviving regions so candidates don't duel. Dueling is
//     safe (the grant round gives each epoch to at most one winner), just
//     wasteful.
type leaseManager struct {
	rep       *mdcc.Replica
	clk       vclock.Clock
	term      time.Duration
	keyspaces []simnet.Region
	regions   []simnet.Region // sorted: the stagger rank order
	self      simnet.Region

	mu      sync.Mutex
	stopped bool
	timer   vclock.Timer
	started time.Time
}

// newLeaseManager builds a manager and schedules its first tick
// immediately (on the clock, so virtual deployments stay deterministic).
func newLeaseManager(rep *mdcc.Replica, clk vclock.Clock, term time.Duration, keyspaces, regions []simnet.Region, self simnet.Region) *leaseManager {
	m := &leaseManager{
		rep: rep, clk: clk, term: term,
		keyspaces: keyspaces, regions: slices.Clone(regions), self: self,
		started: clk.Now(),
	}
	slices.Sort(m.regions)
	m.mu.Lock()
	m.timer = clk.AfterFunc(0, m.tick)
	m.mu.Unlock()
	return m
}

// Stop cancels the tick loop.
func (m *leaseManager) Stop() {
	m.mu.Lock()
	m.stopped = true
	if m.timer != nil {
		m.timer.Stop()
	}
	m.mu.Unlock()
}

func (m *leaseManager) isStopped() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stopped
}

// tick runs one pass over every keyspace, then re-arms.
func (m *leaseManager) tick() {
	if m.isStopped() {
		return
	}
	m.poke()
	m.mu.Lock()
	if !m.stopped {
		m.timer = m.clk.AfterFunc(m.term/3, m.tick)
	}
	m.mu.Unlock()
}

// poke runs one decision pass without re-arming the tick loop (the
// peer-down fast path).
func (m *leaseManager) poke() {
	now := m.clk.Now()
	for _, ks := range m.keyspaces {
		m.consider(ks, now)
	}
}

// consider applies the lease policy to one keyspace, from one read of the
// replica's lease view.
func (m *leaseManager) consider(ks simnet.Region, now time.Time) {
	li := m.rep.Lease(ks)
	holder := simnet.Region(li.Holder)
	switch {
	case li.Held: // renewal
		m.rep.AcquireLease(ks)
	case li.Epoch == 0:
		if m.self == ks || now.Sub(m.started) > 2*m.term+m.stagger(ks) {
			m.rep.AcquireLease(ks)
		}
	case holder == m.self:
		m.rep.AcquireLease(ks)
	case now.After(li.Expiry.Add(m.stagger(holder))):
		m.rep.AcquireLease(ks)
	}
}

// stagger ranks this region among the candidates (every region except the
// current holder, sorted) and spaces takeover attempts half a term apart by
// rank.
func (m *leaseManager) stagger(holder simnet.Region) time.Duration {
	rank := 0
	for _, r := range m.regions {
		if r == holder {
			continue
		}
		if r == m.self {
			break
		}
		rank++
	}
	return time.Duration(rank) * (m.term / 2)
}

// PeerState feeds realnet peer-health transitions into the manager: a down
// transition means a master may be dead, so run a decision pass now instead
// of waiting out the tick interval. (Expiry still gates the actual
// takeover — that is the correctness rule, not a heuristic.)
func (m *leaseManager) PeerState(region simnet.Region, st realnet.PeerState) {
	if st != realnet.PeerDown || m.isStopped() {
		return
	}
	m.clk.AfterFunc(0, func() {
		if !m.isStopped() {
			m.poke()
		}
	})
}
