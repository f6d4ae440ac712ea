package httpapi

// Node tests: the checks of a live deployment that need real sockets but
// no separate process, on an in-process trio (startGateTrio) driven through
// its gateways: lease boot and failover over realnet, and a link cut and a
// listener drop through the /v1/net routes.

import (
	"fmt"
	"testing"
	"time"

	"planet/internal/cluster"
	"planet/internal/mdcc"
	"planet/internal/simnet"
)

// leasedTrio starts a trio with master leases, every key's default holder
// us-east, and a data dir per region that a restarted node reopens.
func leasedTrio(t *testing.T, term, commitTimeout time.Duration) *trio {
	t.Helper()
	dirs := make(map[simnet.Region]string, len(trioRegions))
	for _, r := range trioRegions {
		dirs[r] = t.TempDir()
	}
	return startGateTrio(t, mdcc.ModeClassic, func(r simnet.Region) cluster.NodeConfig {
		return cluster.NodeConfig{MasterRegion: "us-east", MasterLeases: true, LeaseTerm: term,
			CommitTimeout: commitTimeout, DataDir: dirs[r]}
	})
}

// transferReq moves amt from one account to another.
func transferReq(from, to string, amt int64) SubmitRequest {
	return SubmitRequest{Ops: []Op{
		{Kind: "add", Key: from, Delta: -amt},
		{Kind: "add", Key: to, Delta: amt},
	}}
}

// TestNodeBootKeepsLeaseClaim: a leased node booted as planetd boots it —
// NewNode, whose lease tick claims the node's own keyspace at once, then
// seed and RestartReplica, which replays that claim from the WAL — still
// holds its keyspace right after boot, so the first classic write commits,
// and no peer takes the keyspace over from it. Twenty fresh trios.
func TestNodeBootKeepsLeaseClaim(t *testing.T) {
	for i := 0; i < 20; i++ {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			tr := leasedTrio(t, cluster.DefaultLeaseTerm, 2*time.Second)
			st, err := tr.nodes["us-west"].cl.SubmitAndWait(transferReq("acct-1", "acct-2", 1), 5*time.Second)
			if err != nil || !st.Committed {
				t.Fatalf("first classic write after boot: %+v, %v", st, err)
			}
			if h := leaseHolder(t, tr, "us-east"); h != "us-east" {
				t.Errorf("us-east's keyspace is held by %q after boot, want its namesake", h)
			}
		})
	}
}

// leaseHolder returns the region whose node holds keyspace ks's lease by
// its own gateway's account among the live nodes of tr, "" if none does,
// and fails the test if several do. It first waits up to 2 s for a holder.
func leaseHolder(t *testing.T, tr *trio, ks simnet.Region, among ...simnet.Region) simnet.Region {
	t.Helper()
	if len(among) == 0 {
		among = trioRegions
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		var held []simnet.Region
		for _, r := range among {
			resp, err := tr.nodes[r].cl.NetLease()
			if err != nil {
				t.Fatal(err)
			}
			for _, li := range resp.Leases {
				if li.Keyspace == string(ks) && li.Held {
					held = append(held, r)
				}
			}
		}
		switch {
		case len(held) > 1:
			t.Fatalf("%v all hold keyspace %s's lease", held, ks)
		case len(held) == 1:
			return held[0]
		case time.Now().After(deadline):
			return ""
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// commitWithin resubmits req through cl until it commits or budget passes:
// the shape of "the deployment recovers" checks, where the first attempts
// may abort while routes and leases settle.
func commitWithin(t *testing.T, cl *Client, budget time.Duration, what string, req SubmitRequest) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for attempts := 1; ; attempts++ {
		st, err := cl.SubmitAndWait(req, budget)
		if err == nil && st.Committed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: no commit within %v (%d attempts; last %+v, %v)", what, budget, attempts, st, err)
		}
	}
}

// waitPeer waits until region on's gateway reports peer about in state
// want ("up" or "down").
func waitPeer(t *testing.T, tr *trio, on, about simnet.Region, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := tr.nodes[on].cl.NetPeers()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Peers[string(about)] == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s sees %s %q, want %q", on, about, resp.Peers[string(about)], want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertAgreement compares every pair of the regions' /v1/net/decisions:
// a transaction both decided has one verdict.
func assertAgreement(t *testing.T, tr *trio, regions ...simnet.Region) {
	t.Helper()
	maps := make([]map[string]bool, len(regions))
	for i, r := range regions {
		d, err := tr.nodes[r].cl.NetDecisions()
		if err != nil {
			t.Fatalf("decisions %s: %v", r, err)
		}
		maps[i] = d
	}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			for id, vi := range maps[i] {
				if vj, ok := maps[j][id]; ok && vi != vj {
					t.Errorf("dual decision on %s: %s says commit=%v, %s says %v", id, regions[i], vi, regions[j], vj)
				}
			}
		}
	}
}

// assertConserved reads every account at cl's replica: transfers move
// money, so the bank still holds 100 per account.
func assertConserved(t *testing.T, cl *Client) {
	t.Helper()
	var sum int64
	for _, k := range acctKeys {
		r, err := cl.Read(k)
		if err != nil {
			t.Fatal(err)
		}
		sum += r.Int
	}
	if want := int64(100 * len(acctKeys)); sum != want {
		t.Errorf("accounts sum to %d, want %d", sum, want)
	}
}

// TestNodeLeaseFailover is master failover over real sockets: the
// lease-holding node (us-east, every key's default holder) is closed, each
// survivor's coordinator holds it down once a request it sent there goes
// unanswered for a commit timeout, and one survivor takes its keyspace
// over, counts the takeover on /v1/metrics and commits the dead master's
// keys. The node rebuilt on the same DataDir replays its lease entries and
// rejoins deposed, and a probe's answer marks it up again; the verdicts
// agree and the accounts conserve. The virtual-clock half of this
// scenario, with a burst in flight at the crash, is mdcc's
// TestLeaseFailoverUnderLoad.
func TestNodeLeaseFailover(t *testing.T) {
	const victim = simnet.Region("us-east")
	survivors := []simnet.Region{"eu-west", "us-west"}
	tr := leasedTrio(t, 300*time.Millisecond, 500*time.Millisecond)
	gw := tr.nodes["us-west"].cl
	if h := leaseHolder(t, tr, victim); h != victim {
		t.Fatalf("lease %s held by %q at boot, want its default holder", victim, h)
	}
	commitWithin(t, gw, 2*time.Second, "warm-up transfer", transferReq("acct-1", "acct-2", 3))

	// The first transfers after the close go to the dead master, whose
	// lease has yet to lapse, and time out: a commit timeout later each
	// survivor that sent one holds the dead master down.
	tr.nodes[victim].c.Close()
	if _, err := tr.nodes["eu-west"].cl.Submit(transferReq("acct-4", "acct-5", 1)); err != nil {
		t.Fatal(err)
	}
	commitWithin(t, gw, 3*time.Second, "transfer on the dead master's keys", transferReq("acct-2", "acct-3", 1))
	waitPeer(t, tr, "us-west", victim, "down")
	heir := leaseHolder(t, tr, victim, survivors...)
	if heir == "" {
		t.Fatalf("no survivor took keyspace %s over", victim)
	}
	resp, err := tr.nodes[heir].cl.NetLease()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Takeovers != 1 {
		t.Errorf("heir %s reports %d takeovers, want 1", heir, resp.Takeovers)
	}
	text, err := tr.nodes[heir].cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if n := sumSeries(parseExposition(t, text), "planet_lease_takeovers_total", nil); n < 1 {
		t.Errorf("heir %s exports planet_lease_takeovers_total=%v, want >= 1", heir, n)
	}
	waitPeer(t, tr, heir, victim, "down")

	tr.restart(t, victim)
	waitPeer(t, tr, "us-west", victim, "up")
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := tr.nodes[victim].cl.NetLease()
		if err != nil {
			t.Fatal(err)
		}
		var li mdcc.LeaseInfo
		for _, l := range resp.Leases {
			if l.Keyspace == string(victim) {
				li = l
			}
		}
		if li.Holder == string(heir) && !li.Held && li.HeldEpoch >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted %s sees lease %+v, want held by %s, with its replayed held epoch", victim, li, heir)
		}
		time.Sleep(5 * time.Millisecond)
	}
	commitWithin(t, gw, 2*time.Second, "transfer after the restart", transferReq("acct-3", "acct-1", 2))
	assertAgreement(t, tr, trioRegions...)
	assertConserved(t, gw)
}

// TestNodePartitionAndListenerCycle cuts the us-west–us-east link through
// both gateways' /v1/net/cut, then drops and restores us-east's listener
// three times through /v1/net/listener (a reconnect storm in miniature).
// A cut is silence: the first fast submission across it times out, after
// which us-west's coordinator holds us-east down and its submissions commit
// on the classic path; a key mastered across the cut aborts by commit
// timeout instead of hanging; after the heal and after the storm, it
// commits again.
func TestNodePartitionAndListenerCycle(t *testing.T) {
	const gwr, other = simnet.Region("us-west"), simnet.Region("us-east")
	const commitTimeout = 500 * time.Millisecond
	tr := startGateTrio(t, mdcc.ModeFast, func(simnet.Region) cluster.NodeConfig {
		return cluster.NodeConfig{CommitTimeout: commitTimeout}
	})
	gw := tr.nodes[gwr].cl
	var reachable, unreachable []string
	for _, k := range acctKeys {
		if mdcc.MasterFor(k, trioRegions) == other {
			unreachable = append(unreachable, k)
		} else {
			reachable = append(reachable, k)
		}
	}
	if len(reachable) < 2 || len(unreachable) < 1 {
		t.Fatalf("mastership split unusable: reachable=%v unreachable=%v", reachable, unreachable)
	}
	cut := func(on bool) {
		t.Helper()
		if err := gw.NetCut(string(other), on); err != nil {
			t.Fatal(err)
		}
		if err := tr.nodes[other].cl.NetCut(string(gwr), on); err != nil {
			t.Fatal(err)
		}
	}

	// resolvesByTimeout submits req and requires it to abort within about
	// the commit timeout.
	resolvesByTimeout := func(what string, req SubmitRequest) {
		t.Helper()
		begin := time.Now()
		st, err := gw.SubmitAndWait(req, 5*time.Second)
		if err != nil || !st.Done {
			t.Fatalf("%s did not resolve: %+v, %v", what, st, err)
		}
		if st.Committed {
			t.Errorf("%s committed", what)
		}
		if took := time.Since(begin); took > commitTimeout+time.Second {
			t.Errorf("%s resolved after %v, want about the %v commit timeout", what, took, commitTimeout)
		}
	}

	cut(true)
	resolvesByTimeout("the first transfer across the partition", transferReq(reachable[0], reachable[1], 2))
	waitPeer(t, tr, gwr, other, "down")
	if st, err := gw.SubmitAndWait(transferReq(reachable[0], reachable[1], 2), 5*time.Second); err != nil || !st.Committed {
		t.Fatalf("transfer across the partition once us-east is down: %+v, %v", st, err)
	}
	resolvesByTimeout("a transfer on a key mastered across the cut", transferReq(unreachable[0], reachable[0], 1))
	cut(false)
	commitWithin(t, gw, 2*time.Second, "transfer on the cut-off master's key after the heal", transferReq(unreachable[0], reachable[0], 1))

	for i := 0; i < 3; i++ {
		if err := tr.nodes[other].cl.NetListener(true); err != nil {
			t.Fatal(err)
		}
		time.Sleep(150 * time.Millisecond)
		if err := tr.nodes[other].cl.NetListener(false); err != nil {
			t.Fatal(err)
		}
	}
	waitPeer(t, tr, gwr, other, "up")
	commitWithin(t, gw, 2*time.Second, "transfer after the reconnect storm", transferReq(unreachable[0], reachable[0], 1))
	peers, err := gw.NetPeers()
	if err != nil {
		t.Fatal(err)
	}
	if peers.Stats.Reconnects == 0 {
		t.Error("the reconnect storm left no reconnects in us-west's transport stats")
	}
}
