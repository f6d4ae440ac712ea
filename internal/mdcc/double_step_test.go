package mdcc

import (
	"fmt"
	"testing"
	"time"

	"planet/internal/simnet"
	"planet/internal/txn"
	"planet/internal/vclock"
)

// A step is a function of the actor's state and its input: two copies of
// an actor in the same state, given the same input, emit equal output
// lists. Each script below builds its actors through the same inputs on a
// fresh stepNet; TestDoubleStep runs every script on two nets and requires
// equal transcripts, step by step. Between them the scripts feed every
// input kind the step tests build, a coordinator crash with six
// transactions in flight, and a replica crash and restore with several
// keyspaces: the two steps that emit one output per map entry.

// flood delivers st's wire messages and everything they cause, breadth
// first, dropping messages to drop's replica.
func (n *stepNet) flood(st stepped, drop simnet.Region) {
	for next := []stepped{st}; len(next) > 0; {
		var out []stepped
		for _, s := range next {
			var kept []sent
			for _, w := range s.wire {
				if w.to.Region != drop || w.to == n.coord.cfg.Addr {
					kept = append(kept, w)
				}
			}
			out = append(out, n.deliver(stepped{wire: kept})...)
		}
		next = out
	}
}

// multiLeaseNet is newStepNet with leases on three keyspaces, one per
// region, and every replica's lease views fed to the coordinator and
// recorded for the transcript.
func multiLeaseNet() *stepNet {
	n := newStepNet()
	for _, r := range n.reps {
		r.cfg.Leases = &LeaseConfig{Term: 3 * time.Second, Keyspaces: stepRegions,
			KeyspaceOf: func(k string) simnet.Region { return simnet.Region(k[:1]) },
			OnView: func(ks, holder simnet.Region, seq uint64) {
				n.calls = append(n.calls, fmt.Sprintf("view %s=%s #%d", ks, holder, seq))
				n.run(n.coord, leaseView{ks, holder, seq})
			}}
		r.leases = make(map[simnet.Region]*leaseState)
		n.run(r, query(r.startTick))
	}
	return n
}

// doubleStepScripts name each script and the net it runs on.
var doubleStepScripts = []struct {
	name   string
	net    func() *stepNet
	script func(n *stepNet)
}{
	{"fast commit", newStepNet, func(n *stepNet) {
		n.flood(n.run(n.coord, submitInput(1, ModeFast, "k", "j")), "")
	}},
	{"classic round", newStepNet, func(n *stepNet) {
		n.flood(n.run(n.coord, submitInput(2, ModeClassic, "k", "j")), "")
	}},
	{"timeout", newStepNet, func(n *stepNet) {
		n.flood(n.run(n.coord, submitInput(3, ModeFast, "k")), "c")
		n.now = n.now.Add(time.Second)
		n.flood(n.run(n.coord, timeout{3}), "")
	}},
	{"quorum read", newStepNet, func(n *stepNet) {
		n.flood(n.run(n.coord, &quorumRead{key: "k", w: &readWaiter{need: 2, done: vclock.Real{}.NewEvent()}}), "")
	}},
	{"detector", newStepNet, func(n *stepNet) {
		n.flood(n.run(n.coord, submitInput(4, ModeFast, "k")), "c")
		n.now = n.now.Add(time.Second)
		n.flood(n.run(n.coord, &peerView{}), "")
		n.flood(n.run(n.coord, submitInput(5, ModeFast, "j")), "")
	}},
	{"coordinator crash with six in flight", newStepNet, func(n *stepNet) {
		for id := txn.ID(1); id <= 6; id++ {
			n.run(n.coord, submitInput(id, ModeFast, fmt.Sprint("k", id)))
		}
		n.run(n.coord, crash{})
		n.run(n.coord, restart{})
	}},
	{"leases, replica crash and restore", multiLeaseNet, func(n *stepNet) {
		for _, r := range n.reps {
			n.flood(n.run(r, leaseTick{}), "")
		}
		n.flood(n.run(n.coord, submitInput(6, ModeClassic, "a1", "b1", "c1")), "")
		c := n.reps[2]
		n.run(c, crash{})
		var entries []Entry
		for _, ks := range stepRegions {
			entries = append(entries, Entry{Lease: &LeaseRecord{Keyspace: string(ks), Epoch: 1, Holder: string(ks)}})
		}
		n.run(c, restore{entries})
		n.now = n.now.Add(time.Second)
		for _, r := range n.reps {
			n.flood(n.run(r, leaseTick{}), "")
		}
		n.run(c, closeReplica{})
	}},
}

// TestDoubleStep runs every script on two fresh nets, ten times, and
// requires equal transcripts.
func TestDoubleStep(t *testing.T) {
	for _, sc := range doubleStepScripts {
		t.Run(sc.name, func(t *testing.T) {
			for i := 0; i < 10; i++ {
				n1, n2 := sc.net(), sc.net()
				sc.script(n1)
				sc.script(n2)
				if len(n1.log) == 0 {
					t.Fatal("the script stepped nothing")
				}
				for j := 0; j < len(n1.log) || j < len(n2.log); j++ {
					var l1, l2 string
					if j < len(n1.log) {
						l1 = n1.log[j]
					}
					if j < len(n2.log) {
						l2 = n2.log[j]
					}
					if l1 != l2 {
						t.Fatalf("run %d: transcripts part at line %d:\n\t%s\n\t%s", i, j, l1, l2)
					}
				}
			}
		})
	}
}
