package mdcc

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"planet/internal/simnet"
	"planet/internal/txn"
	"planet/internal/vclock"
)

// The tests in this file drive the actors' step functions directly: no
// clock, no transport, no cluster. Each step's outputs are rendered as text
// and routed between actors by hand.

// stepRegions names the three replicas of the step tests.
var stepRegions = []simnet.Region{"a", "b", "c"}

// stepNet is three replicas and one coordinator built without a transport.
// Replica a masters every key.
type stepNet struct {
	reps  []*Replica
	coord *Coordinator
	now   time.Time
}

func newStepNet() *stepNet {
	peers := make([]simnet.Addr, len(stepRegions))
	for i, reg := range stepRegions {
		peers[i] = simnet.Addr{Region: reg, Name: "replica"}
	}
	n := &stepNet{now: time.Unix(1000, 0)}
	for _, p := range peers {
		n.reps = append(n.reps, &Replica{
			cfg:     ReplicaConfig{Addr: p, Peers: peers, WAL: NewWAL(nil), Seeds: new(SeedImage)},
			records: make(map[string]*record),
			masters: make(map[string]*masterKey),
		})
	}
	n.coord = &Coordinator{
		cfg: CoordinatorConfig{
			Addr:          simnet.Addr{Region: "a", Name: "coord"},
			Replicas:      peers,
			MasterFor:     func(string) simnet.Addr { return peers[0] },
			CommitTimeout: time.Second,
		},
		active: make(map[txn.ID]*commitState),
	}
	return n
}

// sent is one wire message a step's outputs put on the network, in the form
// the transport would carry it.
type sent struct {
	to   simnet.Addr
	msgs []any
}

// stepped is what one step emitted: its outputs in order, rendered, and the
// wire messages among them in send order.
type stepped struct {
	lines []string
	wire  []sent
}

// run steps actor (a *Replica or the *Coordinator) on in and renders the
// outputs the way exec would perform them. A staged group renders once, as
// the coalesced wire message flush would send, at its first payload.
func (n *stepNet) run(actor any, in any) stepped {
	b := new(outBuf)
	switch a := actor.(type) {
	case *Replica:
		a.out = b
		a.step(n.now, in)
		a.out = nil
	case *Coordinator:
		a.out = b
		a.step(n.now, in)
		a.out = nil
	}
	var st stepped
	for _, w := range b.wal {
		st.lines = append(st.lines, fmt.Sprintf("wal %s commit=%v %v", w.e.Txn, w.e.Commit, opKeys(w.e.Options)))
	}
	for i := range b.outs {
		o := &b.outs[i]
		switch o.kind {
		case outSend:
			st.wire = append(st.wire, sent{o.to, []any{o.msg}})
			st.lines = append(st.lines, fmt.Sprintf("send %s %s", o.to, render(o.msg)))
		case outStage:
			if o.msg == nil {
				continue
			}
			to, msgs := b.gather(i)
			st.wire = append(st.wire, sent{to, append([]any(nil), msgs...)})
			for _, m := range msgs {
				st.lines = append(st.lines, fmt.Sprintf("send %s %s", to, render(m)))
			}
		case outArm:
			st.lines = append(st.lines, fmt.Sprintf("arm %s", o.ev.Txn))
		case outStop:
			st.lines = append(st.lines, fmt.Sprintf("stop %s", o.ev.Txn))
		case outProgress:
			st.lines = append(st.lines, fmt.Sprintf("progress %s %s %s accept=%v", o.ev.Kind, o.ev.Key, o.ev.Region, o.ev.Accept))
		case outDecided:
			st.lines = append(st.lines, fmt.Sprintf("decided %s commit=%v err=%v", o.ev.Txn, o.ev.Accept, o.err))
		default:
			st.lines = append(st.lines, fmt.Sprintf("output kind %d", o.kind))
		}
	}
	return st
}

// deliver routes every wire message of st addressed to a replica or the
// coordinator into it, in send order, and returns each delivery's outputs
// in the same order.
func (n *stepNet) deliver(st stepped) []stepped {
	var out []stepped
	for _, w := range st.wire {
		for _, m := range w.msgs {
			out = append(out, n.run(n.actor(w.to), m))
		}
	}
	return out
}

func (n *stepNet) actor(a simnet.Addr) any {
	if a == n.coord.cfg.Addr {
		return n.coord
	}
	for _, r := range n.reps {
		if r.cfg.Addr == a {
			return r
		}
	}
	panic(fmt.Sprintf("no actor at %s", a))
}

func opKeys(ops []txn.Op) []string {
	keys := make([]string, len(ops))
	for i, op := range ops {
		keys[i] = op.Key
	}
	return keys
}

// render prints a protocol message with the fields the tests assert.
func render(m any) string {
	switch p := m.(type) {
	case proposeMsg:
		return fmt.Sprintf("propose %s %v", p.Txn, opKeys(p.Options))
	case voteBatchMsg:
		var vs []string
		for _, v := range p.Votes {
			vs = append(vs, fmt.Sprintf("%s:%v:%s", v.Key, v.Accept, v.Reason))
		}
		return fmt.Sprintf("votes %s from %s %v", p.Txn, p.Region, vs)
	case decideMsg:
		return fmt.Sprintf("decide %s commit=%v %v", p.Txn, p.Commit, opKeys(p.Options))
	case classicProposeBatchMsg:
		return fmt.Sprintf("classic-propose %s %v", p.Txn, opKeys(p.Options))
	case phase1aMsg:
		return fmt.Sprintf("phase1a %s ballot=%d", p.Key, p.Ballot)
	case phase1bMsg:
		return fmt.Sprintf("phase1b %s ballot=%d ok=%v from %s pending=%d", p.Key, p.Ballot, p.OK, p.Region, len(p.Pending))
	case phase2aBatchMsg:
		var items []string
		for _, it := range p.Items {
			items = append(items, fmt.Sprintf("%s:%s@%d", it.Txn, it.Key, it.Ballot))
		}
		return fmt.Sprintf("phase2a %v", items)
	case phase2bBatchMsg:
		var items []string
		for _, it := range p.Items {
			items = append(items, fmt.Sprintf("%s:%s@%d:%v", it.Txn, it.Key, it.Ballot, it.Accept))
		}
		return fmt.Sprintf("phase2b from %s %v", p.Region, items)
	case classicResultBatchMsg:
		var rs []string
		for _, r := range p.Results {
			rs = append(rs, fmt.Sprintf("%s:%v:%s", r.Key, r.Accepted, r.Reason))
		}
		return fmt.Sprintf("classic-result %s %v", p.Txn, rs)
	case readReq:
		return fmt.Sprintf("read-req id=%d %s from %s", p.ReqID, p.Key, p.From)
	}
	return fmt.Sprintf("%T", m)
}

// nopSink is a ProgressSink the step tests never call: sinks are outputs.
type nopSink struct{}

func (nopSink) Progress(ProgressEvent)      {}
func (nopSink) Decided(txn.ID, bool, error) {}

func submitInput(id txn.ID, mode Mode, keys ...string) *submit {
	ops := make([]txn.Op, len(keys))
	for i, k := range keys {
		ops[i] = setOp(k, 0)
	}
	return &submit{s: &commitState{id: id, ops: ops, mode: mode, sink: nopSink{}}}
}

func expectLines(t *testing.T, what string, got stepped, want ...string) {
	t.Helper()
	if strings.Join(got.lines, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s:\n got:\n\t%s\nwant:\n\t%s", what, strings.Join(got.lines, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// TestStepFastCommit drives a fast-path commit through the step functions:
// the submit's proposals, each replica's vote, the vote that completes the
// fast quorum (3 of 3), and the decide each replica logs.
func TestStepFastCommit(t *testing.T) {
	n := newStepNet()
	sub := n.run(n.coord, submitInput(1, ModeFast, "k"))
	expectLines(t, "submit", sub,
		"arm txn-1",
		"progress submitted   accept=false",
		"send a/replica propose txn-1 [k]",
		"send b/replica propose txn-1 [k]",
		"send c/replica propose txn-1 [k]")

	votes := n.deliver(sub)
	for i, v := range votes {
		expectLines(t, "propose at "+string(stepRegions[i]), v,
			fmt.Sprintf("send a/coord votes txn-1 from %s [k:true:accept]", stepRegions[i]))
	}
	n.now = n.now.Add(time.Millisecond)
	tallies := n.deliver(stepped{wire: append(append(votes[0].wire, votes[1].wire...), votes[2].wire...)})
	expectLines(t, "first vote", tallies[0], "progress vote k a accept=true")
	expectLines(t, "second vote", tallies[1], "progress vote k b accept=true")
	expectLines(t, "quorum vote", tallies[2],
		"progress vote k c accept=true",
		"progress option-learned k  accept=true",
		"stop txn-1",
		"send a/replica decide txn-1 commit=true [k]",
		"send b/replica decide txn-1 commit=true [k]",
		"send c/replica decide txn-1 commit=true [k]",
		"progress decided   accept=true",
		"decided txn-1 commit=true err=<nil>")

	for i, d := range n.deliver(tallies[2]) {
		expectLines(t, "decide at "+string(stepRegions[i]), d, "wal txn-1 commit=true [k]")
	}
	for _, r := range n.reps {
		if v, _ := r.readLocal("k"); v.Version != 1 {
			t.Errorf("%s: k at version %d after the commit, want 1", r.Region(), v.Version)
		}
	}
}

// TestStepClassicRound drives a classic-path commit through the master's
// phase 1 and phase 2 across three replicas, routing every envelope by
// hand; the third replica's answers arrive after each quorum is met.
func TestStepClassicRound(t *testing.T) {
	n := newStepNet()
	master := n.reps[0]
	sub := n.run(n.coord, submitInput(2, ModeClassic, "k"))
	expectLines(t, "submit", sub,
		"arm txn-2",
		"progress submitted   accept=false",
		"send a/replica classic-propose txn-2 [k]")

	p1 := n.run(master, sub.wire[0].msgs[0])
	expectLines(t, "classic propose at master", p1,
		"send b/replica phase1a k ballot=1",
		"send c/replica phase1a k ballot=1")

	promises := n.deliver(p1)
	expectLines(t, "phase 1a at b", promises[0], "send a/replica phase1b k ballot=1 ok=true from b pending=0")
	expectLines(t, "phase 1a at c", promises[1], "send a/replica phase1b k ballot=1 ok=true from c pending=0")

	p2 := n.run(master, promises[0].wire[0].msgs[0])
	expectLines(t, "phase 1b from b", p2,
		"send b/replica phase2a [txn-2:k@1]",
		"send c/replica phase2a [txn-2:k@1]")
	late := n.run(master, promises[1].wire[0].msgs[0])
	expectLines(t, "late phase 1b from c", late)

	accepts := n.deliver(p2)
	expectLines(t, "phase 2a at b", accepts[0], "send a/replica phase2b from b [txn-2:k@1:true]")
	expectLines(t, "phase 2a at c", accepts[1], "send a/replica phase2b from c [txn-2:k@1:true]")

	res := n.run(master, accepts[0].wire[0].msgs[0])
	expectLines(t, "phase 2b from b", res, "send a/coord classic-result txn-2 [k:true:accept]")
	expectLines(t, "late phase 2b from c", n.run(master, accepts[1].wire[0].msgs[0]))

	dec := n.deliver(res)[0]
	expectLines(t, "classic result at coordinator", dec,
		"progress option-learned k  accept=true",
		"stop txn-2",
		"send a/replica decide txn-2 commit=true [k]",
		"send b/replica decide txn-2 commit=true [k]",
		"send c/replica decide txn-2 commit=true [k]",
		"progress decided   accept=true",
		"decided txn-2 commit=true err=<nil>")
	for i, d := range n.deliver(dec) {
		expectLines(t, "decide at "+string(stepRegions[i]), d, "wal txn-2 commit=true [k]")
		if got := n.reps[i].records["k"].pending; len(got) != 0 {
			t.Errorf("%s: %d pendings left after the decide", stepRegions[i], len(got))
		}
	}
}

// TestStepCommitTimeout feeds the commit-timeout input: the transaction
// aborts with ErrTimeout, its decision reaches every replica, and a second
// timeout for it is a no-op.
func TestStepCommitTimeout(t *testing.T) {
	n := newStepNet()
	n.run(n.coord, submitInput(3, ModeFast, "k"))
	n.now = n.now.Add(time.Second)
	got := n.run(n.coord, timeout{3})
	expectLines(t, "timeout", got,
		"stop txn-3",
		"send a/replica decide txn-3 commit=false [k]",
		"send b/replica decide txn-3 commit=false [k]",
		"send c/replica decide txn-3 commit=false [k]",
		"progress decided   accept=false",
		"decided txn-3 commit=false err="+ErrTimeout.Error())
	if n.coord.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", n.coord.Timeouts)
	}
	expectLines(t, "second timeout", n.run(n.coord, timeout{3}))
	if len(n.coord.active) != 0 {
		t.Errorf("%d transactions still active", len(n.coord.active))
	}
}

// TestStepQuorumReadIDs: a quorum read's request id is the coordinator's
// own sequence, so the requests a step emits depend only on its state.
func TestStepQuorumReadIDs(t *testing.T) {
	n := newStepNet()
	for id := 1; id <= 2; id++ {
		got := n.run(n.coord, &quorumRead{key: "k", w: &readWaiter{need: 2}})
		expectLines(t, fmt.Sprintf("read %d", id), got,
			fmt.Sprintf("send a/replica read-req id=%d k from a/coord", id),
			fmt.Sprintf("send b/replica read-req id=%d k from a/coord", id),
			fmt.Sprintf("send c/replica read-req id=%d k from a/coord", id))
	}
}

// TestCommitTimerStopWins: on a live node the arm and the stop of one
// commit timeout are outputs two goroutines may perform in either order.
// Whichever comes first, no timer is left running.
func TestCommitTimerStopWins(t *testing.T) {
	timers := make([]commitTimer, 200)
	var wg sync.WaitGroup
	for i := range timers {
		ct := &timers[i]
		wg.Add(2)
		go func() {
			defer wg.Done()
			ct.arm(vclock.Real{}, time.Hour, func() { t.Error("a stopped commit timeout fired") })
		}()
		go func() {
			defer wg.Done()
			ct.stop()
		}()
	}
	wg.Wait()
	for i := range timers {
		if ct := &timers[i]; ct.t != nil && ct.t.Stop() {
			t.Fatalf("timer %d was armed after its stop and left running", i)
		}
	}
}
