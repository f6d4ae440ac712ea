package multinet

// Process-level crash-restart tests: each test boots a 3-region cluster of
// real planetd processes on loopback TCP and injects OS-level faults.
// These are the live-fire counterpart to the simnet/chaos suites — fewer
// schedules, but real sockets, real SIGKILL, real WAL files.

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"planet/internal/httpapi"
	"planet/internal/simnet"
)

// planetdBin is built once by TestMain and shared by every test.
var planetdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "multinet-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "multinet:", err)
		os.Exit(1)
	}
	planetdBin = filepath.Join(dir, "planetd")
	build := exec.Command("go", "build", "-o", planetdBin, "planet/cmd/planetd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "multinet: build planetd:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// start boots a cluster with test-friendly timeouts and registers cleanup.
func start(t *testing.T, cfg Config) *Network {
	t.Helper()
	cfg.Binary = planetdBin
	cfg.BaseDir = t.TempDir()
	if cfg.CommitTimeout == 0 {
		cfg.CommitTimeout = time.Second
	}
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// acctKeys is the bank planetd seeds: acct-1..acct-8 at 100 each.
func acctKeys() []string {
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct-%d", i+1)
	}
	return keys
}

// commitWithin retries fn (a submit returning committed) until it commits
// or the budget passes — the shape of "the cluster should recover" checks,
// where the first attempt may burn a commit timeout while peer health
// catches up with a silent kill.
func commitWithin(t *testing.T, budget time.Duration, what string, fn func() (bool, error)) {
	t.Helper()
	deadline := time.Now().Add(budget)
	var attempts int
	for {
		committed, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		attempts++
		if committed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: no commit within %v (%d attempts)", what, budget, attempts)
		}
	}
}

// assertAgreement cross-checks the decision maps of every pair of regions:
// a transaction decided by both must have the same verdict. This is THE
// safety property — a kill -9 must never yield a dual decision.
func assertAgreement(t *testing.T, n *Network, regions []simnet.Region) {
	t.Helper()
	maps := make(map[simnet.Region]map[string]bool, len(regions))
	for _, r := range regions {
		d, err := n.Decisions(r)
		if err != nil {
			t.Fatalf("decisions %s: %v", r, err)
		}
		maps[r] = d
	}
	for i, a := range regions {
		for _, b := range regions[i+1:] {
			for id, va := range maps[a] {
				if vb, ok := maps[b][id]; ok && va != vb {
					t.Errorf("dual decision on %s: %s says commit=%v, %s says commit=%v",
						id, a, va, b, vb)
				}
			}
		}
	}
}

// TestRealnetKillRestartMaster is the acceptance scenario: a 3-process
// cluster sustains commits while one key-master is SIGKILLed mid-load and
// restarted; the restarted node replays its WAL, rejoins, agrees with the
// survivors on every decision both retain, and account money is conserved.
func TestRealnetKillRestartMaster(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level harness")
	}
	n := start(t, Config{})
	keys := acctKeys()

	// The victim is whatever region masters acct-1; the gateway is any
	// other region. Survivor keys are mastered by neither-dead regions, so
	// their classic path stays available during the outage.
	victim := n.MasterOf(keys[0])
	var gw simnet.Region
	for _, r := range n.Regions() {
		if r != victim {
			gw = r
			break
		}
	}
	var survivorKeys []string
	for _, k := range keys {
		if n.MasterOf(k) != victim {
			survivorKeys = append(survivorKeys, k)
		}
	}
	if len(survivorKeys) < 2 {
		t.Fatalf("mastership hash left %d survivor keys; need 2", len(survivorKeys))
	}
	t.Logf("victim=%s gateway=%s survivorKeys=%v", victim, gw, survivorKeys)
	sess := n.Session(gw, 8*time.Second)

	// Phase 1: healthy cluster, fast-path transfers across the whole bank.
	for i := 0; i < 6; i++ {
		from, to := keys[i%len(keys)], keys[(i+3)%len(keys)]
		if from == to {
			continue
		}
		committed, id, err := sess.Transfer(from, to, 5)
		if err != nil || !committed {
			t.Fatalf("phase 1 transfer %s: committed=%v err=%v", id, committed, err)
		}
	}

	// Phase 2: kill -9 the master mid-load. The first transfer may burn a
	// commit timeout while the transport notices the silent death; after
	// that, submissions degrade to the classic path and keep committing.
	if err := n.Kill(victim); err != nil {
		t.Fatal(err)
	}
	commitWithin(t, 15*time.Second, "first post-kill transfer", func() (bool, error) {
		c, _, err := sess.Transfer(survivorKeys[0], survivorKeys[1], 1)
		return c, err
	})
	if err := n.WaitPeerState(gw, victim, "down", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	committedDuringOutage := 1
	for i := 0; i < 5; i++ {
		from := survivorKeys[i%len(survivorKeys)]
		to := survivorKeys[(i+1)%len(survivorKeys)]
		committed, id, err := sess.Transfer(from, to, 2)
		if err != nil {
			t.Fatalf("outage transfer %s: %v", id, err)
		}
		if committed {
			committedDuringOutage++
		}
	}
	if committedDuringOutage < 5 {
		t.Errorf("only %d/6 transfers committed during the outage; degraded path should sustain load", committedDuringOutage)
	}

	// Phase 3: restart. The node replays its WAL over the seed image,
	// rejoins, and keys it masters become writable again.
	if err := n.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if ok, err := n.GrepLog(victim, "WAL replay"); err != nil || !ok {
		t.Errorf("restarted node did not report a WAL replay (err=%v); log %s", err, n.nodes[victim].LogPath)
	}
	if err := n.WaitPeerState(gw, victim, "up", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	commitWithin(t, 15*time.Second, "post-restart transfer on a victim-mastered key", func() (bool, error) {
		c, _, err := sess.Transfer(keys[0], survivorKeys[0], 1)
		return c, err
	})

	// Safety and conservation audits.
	assertAgreement(t, n, n.Regions())
	var sum int64
	for _, k := range keys {
		v, err := sess.ReadInt(k)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	if sum != int64(len(keys))*100 {
		t.Errorf("money not conserved: accounts sum to %d, want %d", sum, len(keys)*100)
	}
}

// TestRealnetWALCrashPointMasterKill aims a kill -9 into the window between
// option-accept and decision write at the master of every key: a burst of
// transfers is in flight (widened by -netdelay) when the master dies. After
// restart the master's replayed WAL must agree with the survivors on every
// decision both retain — no dual decision, no resurrected commit.
func TestRealnetWALCrashPointMasterKill(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level harness")
	}
	victim := simnet.Region("us-east")
	n := start(t, Config{
		MasterRegion:  victim,
		NetDelay:      30 * time.Millisecond,
		CommitTimeout: 1500 * time.Millisecond,
	})
	gw := simnet.Region("us-west")
	sess := n.Session(gw, 8*time.Second)
	keys := acctKeys()

	// Establish some durable decisions at the master.
	for i := 0; i < 3; i++ {
		committed, id, err := sess.Transfer(keys[i], keys[i+1], 3)
		if err != nil || !committed {
			t.Fatalf("warmup transfer %s: committed=%v err=%v", id, committed, err)
		}
	}

	// Fire a burst without waiting, then kill the master while the frames
	// are still being delivered (each hop eats >=30ms).
	cl := n.Client(gw)
	var ids []string
	for i := 0; i < 8; i++ {
		from, to := keys[i%len(keys)], keys[(i+5)%len(keys)]
		if from == to {
			continue
		}
		id, err := cl.Submit(transferReq(from, to, 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := n.Kill(victim); err != nil {
		t.Fatal(err)
	}

	// Every in-flight transaction must still resolve at the coordinator —
	// commit (decision already reached) or abort by commit timeout.
	outcomes := make(map[string]bool, len(ids))
	for _, id := range ids {
		st, err := waitResolved(cl, id, 10*time.Second)
		if err != nil {
			t.Fatalf("txn %s never resolved after master kill: %v", id, err)
		}
		outcomes[id] = st.Committed
	}

	// Restart the master: WAL replay must land it on the survivors' side
	// of every decision it managed to log.
	if err := n.Restart(victim); err != nil {
		t.Fatal(err)
	}
	assertAgreement(t, n, n.Regions())

	// The survivors' decision maps are the ground truth for the client's
	// observed outcomes: anything the client saw commit must be a commit
	// there too (and never the reverse at the restarted master).
	for _, r := range []simnet.Region{gw, "eu-west"} {
		decisions, err := n.Decisions(r)
		if err != nil {
			t.Fatal(err)
		}
		for id, committed := range outcomes {
			if committed {
				if got, ok := decisions[id]; ok && !got {
					t.Errorf("client saw %s commit but %s decided abort", id, r)
				}
			}
		}
	}

	// And the deployment is writable again.
	commitWithin(t, 15*time.Second, "post-restart transfer", func() (bool, error) {
		c, _, err := sess.Transfer(keys[0], keys[1], 1)
		return c, err
	})
}

// TestRealnetGracefulShutdown checks the SIGTERM path: the node drains,
// fsyncs its WAL, and exits 0; a later restart replays a clean (untorn)
// log and rejoins.
func TestRealnetGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level harness")
	}
	n := start(t, Config{Drain: 3 * time.Second})
	gw := simnet.Region("us-west")
	victim := simnet.Region("eu-west")
	sess := n.Session(gw, 6*time.Second)
	keys := acctKeys()

	for i := 0; i < 3; i++ {
		committed, id, err := sess.Transfer(keys[i], keys[i+2], 4)
		if err != nil || !committed {
			t.Fatalf("transfer %s: committed=%v err=%v", id, committed, err)
		}
	}
	if err := n.Stop(victim, 10*time.Second); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if ok, _ := n.GrepLog(victim, "shutdown complete"); !ok {
		t.Error("node log missing 'shutdown complete'")
	}
	if err := n.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if ok, _ := n.GrepLog(victim, "WAL replay"); !ok {
		t.Error("restart after graceful shutdown did not replay the WAL")
	}
	if ok, _ := n.GrepLog(victim, "torn tail: true"); ok {
		t.Error("graceful shutdown left a torn WAL tail")
	}
	if err := n.WaitPeerState(gw, victim, "up", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	commitWithin(t, 15*time.Second, "post-restart transfer", func() (bool, error) {
		c, _, err := sess.Transfer(keys[0], keys[1], 1)
		return c, err
	})
	assertAgreement(t, n, n.Regions())
}

// TestStartRetriesTakenPort: a port another process takes between its
// reservation and the node's bind makes that node exit before its gateway
// comes up, and Start closes the fleet and starts it again on fresh ports.
// The squatter takes the first node's gateway port.
func TestStartRetriesTakenPort(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level harness")
	}
	var taken string
	tries := 0
	reserve := func(n int) ([]int, error) {
		ports, err := freePorts(n)
		if tries++; tries == 1 && err == nil {
			l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", ports[0]))
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { l.Close() })
			taken = l.Addr().String()
		}
		return ports, err
	}
	n, err := startWith(Config{Binary: planetdBin, BaseDir: t.TempDir()}, reserve)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	if tries != 2 {
		t.Errorf("%d port sets tried, want 2", tries)
	}
	for _, r := range n.Regions() {
		if nd := n.nodes[r]; nd.HTTPAddr == taken || nd.NetAddr == taken {
			t.Errorf("%s runs on the taken port %s", r, taken)
		}
	}
}

// transferReq builds a two-account transfer request for the raw client.
func transferReq(from, to string, amt int64) httpapi.SubmitRequest {
	return httpapi.SubmitRequest{Ops: []httpapi.Op{
		{Kind: "add", Key: from, Delta: -amt},
		{Kind: "add", Key: to, Delta: amt},
	}}
}

// waitResolved polls a transaction's bounded wait until it reports done.
func waitResolved(cl *httpapi.Client, id string, budget time.Duration) (httpapi.Status, error) {
	deadline := time.Now().Add(budget)
	for {
		st, timedOut, err := cl.WaitBounded(id, 500*time.Millisecond)
		if err != nil {
			return httpapi.Status{}, err
		}
		if !timedOut && st.Done {
			return st, nil
		}
		if time.Now().After(deadline) {
			return httpapi.Status{}, fmt.Errorf("transaction %s unresolved after %v", id, budget)
		}
	}
}
