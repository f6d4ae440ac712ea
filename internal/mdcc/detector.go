package mdcc

import (
	"math/bits"
	"time"

	"planet/internal/simnet"
)

// The coordinator's failure detector. It runs inside the coordinator's
// step and reads nothing but the frames the coordinator sends and
// receives, so it behaves the same on simnet and on TCP. A replica is down
// when a request the coordinator sent it is still unanswered CommitTimeout
// later: the silence that already times a transaction out. Any frame from
// the replica's region marks it up. The check runs at a submit, where a
// fast-path submit degrades to the classic path when the fast quorum is
// down, and at a view query (FastQuorumReachable, DownReplicas). No timer
// is armed and, while every replica is up, nothing is sent: a step that
// finds a replica down sends it a probe, a keyless readReq, at most once
// per CommitTimeout until a frame from its region arrives.

// peerHealth is the detector's state of one replica.
type peerHealth struct {
	// since is the instant of the oldest reply-expecting send to the
	// replica not yet followed by a frame from its region (zero: none).
	since time.Time
	// probed is when the last probe went out (zero: none unanswered).
	probed time.Time
}

// peerView is the detector's view query; step fills down, a bit per
// cfg.Replicas index.
type peerView struct{ down uint64 }

// expect notes a reply-expecting send to replica i (a fast propose, a
// classic propose batch, a readReq). Decides expect nothing.
func (c *Coordinator) expect(now time.Time, i int) {
	if c.cfg.CommitTimeout > 0 && c.peers[i].since.IsZero() {
		c.peers[i].since = now
	}
}

// heard marks region's replica up: a frame from it arrived.
func (c *Coordinator) heard(region simnet.Region) {
	bit, ok := regionBit(c.cfg.Replicas, region)
	if !ok {
		return
	}
	c.peers[bits.TrailingZeros64(bit)] = peerHealth{}
	if c.down&bit != 0 {
		c.down &^= bit
		c.transition(region, false)
	}
}

// detect returns the replicas down at now, a bit per cfg.Replicas index,
// emitting a transition for each whose state changed since the last check
// and a probe to each down replica with no probe sent within CommitTimeout.
func (c *Coordinator) detect(now time.Time) uint64 {
	var down uint64
	for i := range c.peers {
		p := &c.peers[i]
		bit := uint64(1) << uint(i)
		if !p.since.IsZero() && now.Sub(p.since) >= c.cfg.CommitTimeout {
			down |= bit
			if p.probed.IsZero() || now.Sub(p.probed) >= c.cfg.CommitTimeout {
				p.probed = now
				c.out.send(c.cfg.Replicas[i], readReq{From: c.cfg.Addr})
			}
		}
		if (down^c.down)&bit != 0 {
			c.transition(c.cfg.Replicas[i].Region, down&bit != 0)
		}
	}
	c.down = down
	return down
}

// transition emits a change of region's state to the peer observer.
func (c *Coordinator) transition(region simnet.Region, down bool) {
	if f := c.onPeer; f != nil {
		c.out.add(output{kind: outCall, fn: func() { f(region, down) }})
	}
}

// fastQuorumUp reports whether the replicas not in down can form a fast
// quorum.
func (c *Coordinator) fastQuorumUp(down uint64) bool {
	n := len(c.cfg.Replicas)
	return n-bits.OnesCount64(down) >= FastQuorum(n)
}

// FastQuorumReachable reports whether the failure detector holds enough
// replicas up for a fast quorum to form. When it does not, a fast-path
// submit goes classic and the DB sheds speculation in the coordinator's
// region. Like a submit, the query may emit transitions and probes.
func (c *Coordinator) FastQuorumReachable() bool {
	var v peerView
	c.exec("", &v)
	return c.fastQuorumUp(v.down)
}

// DownReplicas returns the regions of the replicas the failure detector
// holds down now, in CoordinatorConfig.Replicas order. Like a submit, the
// query may emit transitions and probes.
func (c *Coordinator) DownReplicas() []simnet.Region {
	var v peerView
	c.exec("", &v)
	var out []simnet.Region
	for i, rep := range c.cfg.Replicas {
		if v.down&(1<<uint(i)) != 0 {
			out = append(out, rep.Region)
		}
	}
	return out
}

// SetPeerObserver installs f (nil clears) to receive the failure
// detector's transitions, each a step output: down when a replica's
// silence reaches CommitTimeout, up when a frame from it arrives. Every
// replica starts up. Typically wired once at startup.
func (c *Coordinator) SetPeerObserver(f func(region simnet.Region, down bool)) {
	c.exec("", query(func(time.Time) { c.onPeer = f }))
}
