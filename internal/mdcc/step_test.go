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

// stepNet is three replicas and one coordinator, built by the production
// state constructors without a transport. Replica a masters every key.
type stepNet struct {
	reps  []*Replica
	coord *Coordinator
	now   time.Time
	// calls collects what observers the tests install (lease views, peer
	// transitions) record when an outCall output runs; the rendered call
	// line carries it.
	calls []string
	// log is every rendered line of every step, in order, each prefixed
	// by its actor's region, and after each step the digest of the stepped
	// actor's state.
	log []string
}

// stepActor is how the step tests drive either actor: its step on an
// output buffer of the test's own, and a digest of its state
// (double_step_test.go).
type stepActor interface {
	Region() simnet.Region
	stepInto(b *outBuf, now time.Time, from simnet.Region, in any)
	digest() uint64
}

// stepInto runs the actor's step at now on in, a message from region from
// ("" for a local input), with b as its output buffer, as exec would
// without the lock.
func (a *actor) stepInto(b *outBuf, now time.Time, from simnet.Region, in any) {
	a.out = b
	a.runStep(now, from, in)
	a.out = nil
}

// buildStepNet builds the net's actors with newCoordinator and newReplica
// and starts none of them. leases, when non-nil, gives each replica its
// lease configuration.
func buildStepNet(leases func(n *stepNet) *LeaseConfig) *stepNet {
	peers := make([]simnet.Addr, len(stepRegions))
	for i, reg := range stepRegions {
		peers[i] = simnet.Addr{Region: reg, Name: "replica"}
	}
	n := &stepNet{now: time.Unix(1000, 0)}
	n.coord = newCoordinator(CoordinatorConfig{
		Addr:          simnet.Addr{Region: "a", Name: "coord"},
		Replicas:      peers,
		MasterFor:     func(string) simnet.Addr { return peers[0] },
		CommitTimeout: time.Second,
	})
	for _, p := range peers {
		cfg := ReplicaConfig{Addr: p, Peers: peers, WAL: NewWAL(nil)}
		if leases != nil {
			cfg.Leases = leases(n)
		}
		n.reps = append(n.reps, newReplica(cfg))
	}
	return n
}

// start steps the start input at every actor, the coordinator first.
func (n *stepNet) start() *stepNet {
	n.run(n.coord, start{})
	for _, r := range n.reps {
		n.run(r, start{})
	}
	return n
}

// newStepNet is a started stepNet without leases.
func newStepNet() *stepNet { return buildStepNet(nil).start() }

// sent is one wire message a step's outputs put on the network, in the form
// the transport would carry it.
type sent struct {
	from simnet.Region
	to   simnet.Addr
	msgs []any
}

// stepped is what one step emitted: its outputs in order, rendered, and the
// wire messages among them in send order.
type stepped struct {
	lines []string
	wire  []sent
}

// run steps a on the local input in.
func (n *stepNet) run(a stepActor, in any) stepped { return n.recv(a, "", in) }

// recv steps a on in, a message from region from ("" for a local input),
// and renders the outputs the way exec would perform them. A staged group
// renders once, as the coalesced wire message flush would send, at its
// first payload.
func (n *stepNet) recv(a stepActor, from simnet.Region, in any) stepped {
	b := new(outBuf)
	a.stepInto(b, n.now, from, in)
	self := a.Region()
	var st stepped
	for _, w := range b.wal {
		if l := w.e.Lease; l != nil {
			st.lines = append(st.lines, fmt.Sprintf("wal lease %s@%d holder=%s held=%v", l.Keyspace, l.Epoch, l.Holder, l.Held))
			continue
		}
		st.lines = append(st.lines, fmt.Sprintf("wal %s commit=%v %v", w.e.Txn, w.e.Commit, opKeys(w.e.Options)))
	}
	for i := range b.outs {
		o := &b.outs[i]
		switch o.kind {
		case outSend:
			st.wire = append(st.wire, sent{self, o.to, []any{o.msg}})
			st.lines = append(st.lines, fmt.Sprintf("send %s %s", o.to, render(o.msg)))
		case outStage:
			if o.msg == nil {
				continue
			}
			to, msgs := b.gather(i)
			st.wire = append(st.wire, sent{self, to, append([]any(nil), msgs...)})
			for _, m := range msgs {
				st.lines = append(st.lines, fmt.Sprintf("send %s %s", to, render(m)))
			}
		case outArm:
			if o.ev.Txn == 0 { // a replica's lease tick
				st.lines = append(st.lines, fmt.Sprintf("arm tick %v", o.d))
				continue
			}
			st.lines = append(st.lines, fmt.Sprintf("arm %s", o.ev.Txn))
		case outStop:
			if o.ev.Txn == 0 {
				st.lines = append(st.lines, "stop tick")
				continue
			}
			st.lines = append(st.lines, fmt.Sprintf("stop %s", o.ev.Txn))
		case outRegister, outDeregister:
			st.lines = append(st.lines, map[outKind]string{outRegister: "register", outDeregister: "deregister"}[o.kind])
		case outCall:
			o.fn()
			st.lines = append(st.lines, strings.TrimSpace("call "+strings.Join(n.calls, "; ")))
			n.calls = n.calls[:0]
		case outProgress:
			st.lines = append(st.lines, fmt.Sprintf("progress %s %s %s accept=%v", o.ev.Kind, o.ev.Key, o.ev.Region, o.ev.Accept))
		case outDecided:
			st.lines = append(st.lines, fmt.Sprintf("decided %s commit=%v err=%v", o.ev.Txn, o.ev.Accept, o.err))
		default:
			st.lines = append(st.lines, fmt.Sprintf("output kind %d", o.kind))
		}
	}
	for _, l := range st.lines {
		n.log = append(n.log, string(self)+": "+l)
	}
	n.log = append(n.log, fmt.Sprintf("%s: state %016x", self, a.digest()))
	return st
}

// deliver routes every wire message of st addressed to a replica or the
// coordinator into it, in send order, and returns each delivery's outputs
// in the same order.
func (n *stepNet) deliver(st stepped) []stepped {
	var out []stepped
	for _, w := range st.wire {
		for _, m := range w.msgs {
			out = append(out, n.recv(n.actor(w.to), w.from, m))
		}
	}
	return out
}

func (n *stepNet) actor(a simnet.Addr) stepActor {
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
	case readResp:
		return fmt.Sprintf("read-resp id=%d %s from %s", p.ReqID, p.Key, p.Region)
	case leaseRequestMsg:
		return fmt.Sprintf("lease-req %s epoch=%d holder=%s", p.Keyspace, p.Epoch, p.Holder)
	case leaseGrantMsg:
		return fmt.Sprintf("lease-grant %s epoch=%d ok=%v from %s", p.Keyspace, p.Epoch, p.OK, p.Region)
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

// oneLease configures the lease tick for the one keyspace "a". a is the
// keyspace's namesake; the term is 3s, so the tick runs every 1s and the
// takeover stagger is 1.5s per rank.
func oneLease(*stepNet) *LeaseConfig {
	return &LeaseConfig{Term: 3 * time.Second, Keyspaces: []simnet.Region{"a"},
		KeyspaceOf: func(string) simnet.Region { return "a" }}
}

// leaseStepNet is newStepNet with every replica running oneLease's tick,
// started at n.now.
func leaseStepNet(t *testing.T) *stepNet {
	n := buildStepNet(oneLease)
	n.run(n.coord, start{})
	for _, r := range n.reps {
		expectLines(t, "start at "+string(r.Region()), n.run(r, start{}), "register", "arm tick 0s")
	}
	return n
}

// TestStepLeaseTick drives the lease policy through the replicas' steps:
// the tick's firings at chosen instants.
func TestStepLeaseTick(t *testing.T) {
	const term = 3 * time.Second
	n := leaseStepNet(t)
	a, b, c := n.reps[0], n.reps[1], n.reps[2]
	t0 := n.now
	at := func(d time.Duration) { n.now = t0.Add(d) }

	// A non-namesake claims an unclaimed keyspace only after two terms plus
	// its stagger: c ranks second among the candidates b and c.
	expectLines(t, "c at t0", n.run(c, leaseTick{}), "arm tick 1s")
	at(2*term + term/2)
	expectLines(t, "c at 2 terms + stagger", n.run(c, leaseTick{}), "arm tick 1s")
	at(2*term + term/2 + time.Millisecond)
	expectLines(t, "c past 2 terms + stagger", n.run(c, leaseTick{}),
		"wal lease a@1 holder=c held=false",
		"send a/replica lease-req a epoch=1 holder=c",
		"send b/replica lease-req a epoch=1 holder=c",
		"arm tick 1s")

	// The namesake claims epoch 1 at t0; b's grant is its majority.
	n = leaseStepNet(t)
	a, b, c = n.reps[0], n.reps[1], n.reps[2]
	claim := n.run(a, leaseTick{})
	expectLines(t, "namesake at t0", claim,
		"wal lease a@1 holder=a held=false",
		"send b/replica lease-req a epoch=1 holder=a",
		"send c/replica lease-req a epoch=1 holder=a",
		"arm tick 1s")
	expectLines(t, "b at t0", n.run(b, leaseTick{}), "arm tick 1s")
	grants := n.deliver(claim)
	expectLines(t, "grant at b", grants[0],
		"wal lease a@1 holder=a held=false",
		"send a/replica lease-grant a epoch=1 ok=true from b")
	expectLines(t, "grant at c", grants[1],
		"wal lease a@1 holder=a held=false",
		"send a/replica lease-grant a epoch=1 ok=true from c")
	expectLines(t, "quorum at a", n.deliver(grants[0])[0], "wal lease a@1 holder=a held=true")
	expectLines(t, "late grant at a", n.deliver(grants[1])[0])

	// The holder renews at its held epoch.
	at(term / 3)
	expectLines(t, "renewal", n.run(a, leaseTick{}),
		"send b/replica lease-req a epoch=1 holder=a",
		"send c/replica lease-req a epoch=1 holder=a",
		"arm tick 1s")

	// a dies; its grant runs out at t0+term on b's and c's clocks. Expiry
	// plus the stagger gates the takeover: b ranks first (no stagger), c
	// second.
	at(term - time.Second)
	expectLines(t, "b, lease live", n.run(b, leaseTick{}), "arm tick 1s")
	at(term)
	expectLines(t, "b at expiry", n.run(b, leaseTick{}), "arm tick 1s")
	at(term + term/2)
	expectLines(t, "c at expiry + stagger", n.run(c, leaseTick{}), "arm tick 1s")
	at(term + time.Millisecond)
	expectLines(t, "b past expiry", n.run(b, leaseTick{}),
		"wal lease a@2 holder=b held=false",
		"send a/replica lease-req a epoch=2 holder=b",
		"send c/replica lease-req a epoch=2 holder=b",
		"arm tick 1s",
	)

	// A crashed replica's tick keeps its period and sends nothing. Restore
	// replays a@1 as live for a term from the replay (c cannot know how
	// long the grant it logged has left), and runs a pass at once: c claims
	// again only after that term plus its stagger.
	restoredAt := term + time.Second
	at(restoredAt)
	expectLines(t, "crash", n.run(c, crash{}), "deregister")
	expectLines(t, "crashed tick", n.run(c, leaseTick{}), "arm tick 1s")
	restored := []Entry{{Lease: &LeaseRecord{Keyspace: "a", Epoch: 1, Holder: "a"}}}
	expectLines(t, "restore", n.run(c, restore{restored}), "register")
	expectLines(t, "tick after restore", n.run(c, leaseTick{}), "arm tick 1s")
	at(restoredAt + term + term/2)
	expectLines(t, "tick a term + stagger after restore", n.run(c, leaseTick{}), "arm tick 1s")
	at(restoredAt + term + term/2 + time.Millisecond)
	expectLines(t, "tick past a term + stagger after restore", n.run(c, leaseTick{}),
		"wal lease a@2 holder=c held=false",
		"send a/replica lease-req a epoch=2 holder=c",
		"send b/replica lease-req a epoch=2 holder=c",
		"arm tick 1s")

	// A replay that names the replica itself holder — a namesake booting
	// over its own claim from the WAL, which dropped the claim's round —
	// claims the next epoch within the restore step, not a tick later.
	expectLines(t, "namesake restore", n.run(a, restore{restored}),
		"wal lease a@2 holder=a held=false",
		"register",
		"send b/replica lease-req a epoch=2 holder=a",
		"send c/replica lease-req a epoch=2 holder=a")

	// Close stops the tick: a tick already fired does nothing.
	expectLines(t, "close", n.run(c, closeReplica{}), "stop tick")
	expectLines(t, "tick after close", n.run(c, leaseTick{}))
}

// TestStepLeaseRoute: the coordinator routes classic options from its own
// state, with no replica built. Before any lease view arrives an option
// goes to MasterFor's region, the key's keyspace; after a view input it
// goes to the view's holder; a view naming no holder restores the static
// route. A view of another keyspace changes nothing, and a view older than
// the one taken (performed late) is dropped.
func TestStepLeaseRoute(t *testing.T) {
	n := newStepNet()
	classic := func(id txn.ID) string {
		t.Helper()
		got := n.run(n.coord, submitInput(id, ModeClassic, "k"))
		if len(got.wire) != 1 {
			t.Fatalf("txn %d: %d wire messages, want 1", id, len(got.wire))
		}
		return string(got.wire[0].to.Region)
	}
	if to := classic(1); to != "a" {
		t.Errorf("before any view: routed to %s, want a", to)
	}
	expectLines(t, "view of a", n.run(n.coord, leaseView{"a", "c", 2}))
	expectLines(t, "view of b", n.run(n.coord, leaseView{"b", "a", 3}))
	if to := classic(2); to != "c" {
		t.Errorf("after a view naming c: routed to %s, want c", to)
	}
	n.run(n.coord, leaseView{"a", "b", 1})
	if to := classic(3); to != "c" {
		t.Errorf("after an older view naming b: routed to %s, want c", to)
	}
	n.run(n.coord, leaseView{"a", "", 4})
	if to := classic(4); to != "a" {
		t.Errorf("after a view naming no holder: routed to %s, want a", to)
	}
}

// TestStepLeaseViewOrder: a live node can perform two replica steps'
// outputs in the opposite order, and the coordinator still routes to the
// later view. Replica b grants epoch 1 to c, then, once that lease has
// lapsed, epoch 2 to itself; the second step's view reaches the
// coordinator first.
func TestStepLeaseViewOrder(t *testing.T) {
	n := buildStepNet(func(n *stepNet) *LeaseConfig {
		l := oneLease(n)
		l.OnView = func(ks, holder simnet.Region, seq uint64) { n.run(n.coord, leaseView{ks, holder, seq}) }
		return l
	}).start()
	b := n.reps[1]
	// step runs b on in and returns the views its outputs would perform.
	step := func(in any) []func() {
		ob := new(outBuf)
		b.stepInto(ob, n.now, "", in)
		var calls []func()
		for _, o := range ob.outs {
			if o.kind == outCall {
				calls = append(calls, o.fn)
			}
		}
		return calls
	}
	req := func(epoch uint64, holder simnet.Region) leaseRequestMsg {
		return leaseRequestMsg{Keyspace: "a", Epoch: epoch, Holder: holder,
			ExpiresUnixNano: n.now.Add(time.Second).UnixNano(),
			From:            simnet.Addr{Region: holder, Name: "replica"}}
	}
	first := step(req(1, "c"))
	n.now = n.now.Add(2 * time.Second)
	second := step(req(2, "b"))
	if len(first) != 1 || len(second) != 1 {
		t.Fatalf("%d and %d views, want one each", len(first), len(second))
	}
	second[0]()
	first[0]()
	got := n.run(n.coord, submitInput(1, ModeClassic, "k"))
	if len(got.wire) != 1 || got.wire[0].to.Region != "b" {
		t.Errorf("routed %v, want to b, the later view's holder", got.lines)
	}
}

// sentTo returns the one wire message st sent to region's replica.
func sentTo(t *testing.T, st stepped, region simnet.Region) any {
	t.Helper()
	for _, w := range st.wire {
		if w.to.Region == region && len(w.msgs) == 1 {
			return w.msgs[0]
		}
	}
	t.Fatalf("nothing sent to %s", region)
	return nil
}

// TestStepLeaseDuel drives the lease duel through the replicas' steps:
// with a dead, b and c claim epoch 2 at one instant, and c, which sorts
// after b, yields, whichever of b's messages reaches it first. b's request
// finds c's claim round open, and c grants it in place of its own
// self-grant; or b's refusal of c's request names b, and c closes its round
// and adopts b, whose request c then grants. Either way b wins epoch 2 and
// counts the win as a takeover from a.
func TestStepLeaseDuel(t *testing.T) {
	const term = 3 * time.Second
	for _, requestFirst := range []bool{true, false} {
		t.Run(map[bool]string{true: "request first", false: "refusal first"}[requestFirst], func(t *testing.T) {
			n := leaseStepNet(t)
			a, b, c := n.reps[0], n.reps[1], n.reps[2]
			claim := n.run(a, leaseTick{})
			for _, g := range n.deliver(claim)[1:] {
				n.deliver(g)
			}
			if !a.holdsLease("a", n.now) {
				t.Fatal("a did not take epoch 1")
			}

			// a dies. At 2 terms both survivors claim epoch 2 (b on its
			// tick, c as if its view had run out a tick earlier).
			n.now = n.now.Add(2 * term)
			bReq := n.run(b, leaseTick{})
			cReq := n.run(c, query(func(now time.Time) { c.acquireLease(now, "a") }))
			atB := n.run(b, sentTo(t, cReq, "b"))
			expectLines(t, "c's request at b", atB, "send c/replica lease-grant a epoch=2 ok=false from b")
			var grant stepped
			if requestFirst {
				grant = n.run(c, sentTo(t, bReq, "c"))
				expectLines(t, "b's request at c", grant,
					"wal lease a@2 holder=b held=false",
					"send b/replica lease-grant a epoch=2 ok=true from c")
				expectLines(t, "b's refusal at c", n.run(c, sentTo(t, atB, "c")))
			} else {
				expectLines(t, "b's refusal at c", n.run(c, sentTo(t, atB, "c")), "wal lease a@2 holder=b held=false")
				grant = n.run(c, sentTo(t, bReq, "c"))
				expectLines(t, "b's request at c", grant, "send b/replica lease-grant a epoch=2 ok=true from c")
			}
			if c.leases["a"].round != nil || c.leases["a"].holder != "b" {
				t.Fatalf("c kept its round or its own view: holder %s", c.leases["a"].holder)
			}
			expectLines(t, "c's grant at b", n.run(b, sentTo(t, grant, "b")), "wal lease a@2 holder=b held=true")
			if !b.holdsLease("a", n.now) || b.LeaseTakeovers != 1 {
				t.Errorf("b holds=%v with %d takeovers, want a held lease and 1 takeover", b.holdsLease("a", n.now), b.LeaseTakeovers)
			}
		})
	}
}

// TestStepLeaseRenewalKeepsView: the tie-break applies to claims only. b
// won epoch 1 with c's grant while a, which sorts first, still keeps its
// own failed self-grant of epoch 1. a's refusal of b's renewal names a at
// b's round's epoch; b keeps its round, its view and its lease, and
// c's grant renews it.
func TestStepLeaseRenewalKeepsView(t *testing.T) {
	n := leaseStepNet(t)
	a, b, c := n.reps[0], n.reps[1], n.reps[2]
	acquire := func(r *Replica) stepped {
		return n.run(r, query(func(now time.Time) { r.acquireLease(now, "a") }))
	}
	bReq := acquire(b)
	acquire(a) // a's request never arrives
	n.run(b, sentTo(t, n.run(c, sentTo(t, bReq, "c")), "b"))
	if !b.holdsLease("a", n.now) {
		t.Fatal("b did not win epoch 1")
	}
	if a.leases["a"].holder != "a" {
		t.Fatalf("a's view names %s, want its own self-grant", a.leases["a"].holder)
	}

	n.now = n.now.Add(time.Second)
	renew := acquire(b)
	nack := n.run(a, sentTo(t, renew, "a"))
	expectLines(t, "b's renewal at a", nack, "send b/replica lease-grant a epoch=1 ok=false from a")
	expectLines(t, "a's refusal at b", n.run(b, sentTo(t, nack, "b")))
	if ls := b.leases["a"]; ls.round == nil || ls.holder != "b" {
		t.Fatalf("b closed its renewal or adopted a: holder %s", ls.holder)
	}
	n.run(b, sentTo(t, n.run(c, sentTo(t, renew, "c")), "b"))
	if !b.holdsLease("a", n.now) || b.leases["a"].heldExpiry != n.now.Add(3*time.Second) {
		t.Errorf("b's renewal did not extend its lease")
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
	timers := make([]stepTimer, 200)
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

// TestStepFailureDetector drives the coordinator's failure detector at
// chosen instants (CommitTimeout 1s): no probe while every replica is up; a
// replica silent since a propose is down exactly CommitTimeout later, not
// 1 ns before; one probe per CommitTimeout while it stays down; a fast
// submit meanwhile degrades to the classic path; and any frame from its
// region marks it up.
func TestStepFailureDetector(t *testing.T) {
	n := newStepNet()
	n.coord.onPeer = func(r simnet.Region, down bool) {
		n.calls = append(n.calls, fmt.Sprintf("%s down=%v", r, down))
	}
	t0 := n.now
	at := func(d time.Duration) { n.now = t0.Add(d) }
	view := func(what string, wantDown uint64, want ...string) {
		t.Helper()
		v := &peerView{}
		expectLines(t, what, n.run(n.coord, v), want...)
		if v.down != wantDown {
			t.Errorf("%s: down %03b, want %03b", what, v.down, wantDown)
		}
	}

	// Every replica up: the submit sends its proposals and nothing else.
	sub := n.run(n.coord, submitInput(1, ModeFast, "k"))
	expectLines(t, "submit with every replica up", sub,
		"arm txn-1",
		"progress submitted   accept=false",
		"send a/replica propose txn-1 [k]",
		"send b/replica propose txn-1 [k]",
		"send c/replica propose txn-1 [k]")
	votes := n.deliver(sub)
	at(time.Millisecond)
	n.deliver(stepped{wire: append(votes[0].wire, votes[1].wire...)}) // c stays silent
	view("a and b answered", 0)

	// c's silence reaches CommitTimeout at t0+1s.
	at(time.Second - time.Nanosecond)
	view("1 ns before the bound", 0)
	at(time.Second)
	view("at the bound", 0b100,
		"send c/replica read-req id=0  from a/coord",
		"call c down=true")
	at(2*time.Second - time.Nanosecond)
	view("probe unanswered within the bound", 0b100)

	// A fast submit while c is down goes classic, to its master a, and a
	// second probe is due.
	at(2 * time.Second)
	deg := n.run(n.coord, submitInput(2, ModeFast, "k"))
	expectLines(t, "degraded submit", deg,
		"send c/replica read-req id=0  from a/coord",
		"arm txn-2",
		"progress submitted   accept=false",
		"send a/replica classic-propose txn-2 [k]")
	if n.coord.DegradedSubmits != 1 {
		t.Errorf("DegradedSubmits = %d, want 1", n.coord.DegradedSubmits)
	}

	// The probe's answer marks c up; it matches no quorum read.
	answer := n.deliver(stepped{wire: deg.wire[:1]})
	expectLines(t, "probe at c", answer[0], "send a/coord read-resp id=0  from c")
	expectLines(t, "probe answer", n.deliver(answer[0])[0], "call c down=false")
	view("after the answer", 0)

	// Any frame counts. Once txn 2's classic round is over and a fast
	// propose has gone unanswered at c alone for a second, a vote from c on
	// a transaction the coordinator does not know marks it up.
	n.flood(stepped{wire: deg.wire[1:]}, "")
	at(3 * time.Second)
	sub = n.run(n.coord, submitInput(3, ModeFast, "j"))
	for _, v := range n.deliver(stepped{wire: sub.wire[:2]}) {
		n.deliver(v)
	}
	at(4 * time.Second)
	view("silent again", 0b100,
		"send c/replica read-req id=0  from a/coord",
		"call c down=true")
	expectLines(t, "stray vote", n.recv(n.coord, "c", voteBatchMsg{Txn: 99, Region: "c"}), "call c down=false")
	view("after the stray vote", 0)
}
