package mdcc_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"planet/internal/cluster"
	"planet/internal/mdcc"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/txn"
	"planet/internal/vclock"
)

// waitSink is a ProgressSink that records events and fires a clock event
// at the decision. A test goroutine holds its cluster clock's execution
// slot, so it waits for the decision through that clock: a raw channel wait
// would freeze virtual time.
type waitSink struct {
	mu     sync.Mutex
	events []mdcc.ProgressEvent
	done   *vclock.Event
	commit bool
	err    error
}

func newWaitSink(c *cluster.Cluster) *waitSink { return &waitSink{done: c.Clock().NewEvent()} }

func (s *waitSink) Progress(e mdcc.ProgressEvent) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *waitSink) Decided(_ txn.ID, committed bool, err error) {
	s.mu.Lock()
	s.commit = committed
	s.err = err
	s.mu.Unlock()
	s.done.Fire()
}

// wait blocks for the decision, failing the test if none comes within ten
// virtual minutes.
func (s *waitSink) wait(t *testing.T) (bool, error) {
	t.Helper()
	if !s.done.WaitTimeout(10 * time.Minute) {
		t.Fatal("transaction never decided")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commit, s.err
}

func (s *waitSink) eventKinds() map[mdcc.ProgressKind]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[mdcc.ProgressKind]int)
	for _, e := range s.events {
		out[e.Kind]++
	}
	return out
}

func newTestCluster(t *testing.T, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 0.01
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		c.Quiesce(2 * time.Second)
	})
	return c
}

// eventually polls cond on the cluster clock every virtual millisecond and
// fails the test unless it holds within d.
func eventually(t *testing.T, c *cluster.Cluster, d time.Duration, what string, cond func() bool) {
	t.Helper()
	clk := c.Clock()
	deadline := clk.Now().Add(d)
	for !cond() {
		if clk.Now().After(deadline) {
			t.Fatalf("%s: not within %v", what, d)
		}
		clk.Sleep(time.Millisecond)
	}
}

// submit is a helper that runs one transaction to decision.
func submit(t *testing.T, c *cluster.Cluster, from simnet.Region, ops []txn.Op, mode mdcc.Mode) (bool, error, *waitSink) {
	t.Helper()
	sink := newWaitSink(c)
	if err := c.Coordinator(from).Submit(txn.NewID(), ops, mode, sink); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	committed, err := sink.wait(t)
	return committed, err, sink
}

func TestFastPathCommit(t *testing.T) {
	c := newTestCluster(t, cluster.Config{})
	c.SeedBytes("k", []byte("v0"))

	v, ok := c.Replica(regions.California).ReadLocal("k")
	if !ok {
		t.Fatal("seeded key missing")
	}
	committed, err, sink := submit(t, c, regions.California, []txn.Op{
		{Kind: txn.OpSet, Key: "k", Value: []byte("v1"), ReadVersion: v.Version},
	}, mdcc.ModeFast)
	if !committed || err != nil {
		t.Fatalf("want commit, got committed=%v err=%v", committed, err)
	}

	kinds := sink.eventKinds()
	if kinds[mdcc.KindSubmitted] != 1 || kinds[mdcc.KindDecided] != 1 {
		t.Errorf("unexpected event kinds: %v", kinds)
	}
	if kinds[mdcc.KindVote] == 0 {
		t.Error("expected vote progress events")
	}

	if !c.Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	for _, r := range c.Regions() {
		got, ok := c.Replica(r).ReadLocal("k")
		if !ok || string(got.Bytes) != "v1" || got.Version != v.Version+1 {
			t.Errorf("%s: got %q v%d, want v1 v%d", r, got.Bytes, got.Version, v.Version+1)
		}
	}
}

func TestClassicPathCommit(t *testing.T) {
	c := newTestCluster(t, cluster.Config{MasterRegion: regions.Virginia})
	c.SeedBytes("k", []byte("v0"))

	committed, err, _ := submit(t, c, regions.Ireland, []txn.Op{
		{Kind: txn.OpSet, Key: "k", Value: []byte("v1"), ReadVersion: 0},
	}, mdcc.ModeClassic)
	if !committed || err != nil {
		t.Fatalf("want commit, got committed=%v err=%v", committed, err)
	}
	if !c.Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	for _, r := range c.Regions() {
		got, _ := c.Replica(r).ReadLocal("k")
		if string(got.Bytes) != "v1" {
			t.Errorf("%s: got %q, want v1", r, got.Bytes)
		}
	}
}

func TestVersionConflictAborts(t *testing.T) {
	c := newTestCluster(t, cluster.Config{})
	c.SeedBytes("k", []byte("v0"))

	committed, err, _ := submit(t, c, regions.Tokyo, []txn.Op{
		{Kind: txn.OpSet, Key: "k", Value: []byte("v1"), ReadVersion: 7}, // stale
	}, mdcc.ModeFast)
	if committed {
		t.Fatal("stale write committed")
	}
	if !errors.Is(err, mdcc.ErrConflict) {
		t.Fatalf("want ErrConflict, got %v", err)
	}
}

func TestEmptyTransactionCommits(t *testing.T) {
	c := newTestCluster(t, cluster.Config{})
	committed, err, _ := submit(t, c, regions.California, nil, mdcc.ModeFast)
	if !committed || err != nil {
		t.Fatalf("read-only txn should commit, got committed=%v err=%v", committed, err)
	}
}

func TestDuplicateKeyRejected(t *testing.T) {
	c := newTestCluster(t, cluster.Config{})
	err := c.Coordinator(regions.California).Submit(txn.NewID(), []txn.Op{
		{Kind: txn.OpSet, Key: "k"},
		{Kind: txn.OpAdd, Key: "k", Delta: 1},
	}, mdcc.ModeFast, newWaitSink(c))
	if err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestCommutativeAddsBothCommit(t *testing.T) {
	c := newTestCluster(t, cluster.Config{})
	c.SeedInt("stock", 100, 0, 1_000_000)

	g := vclock.NewGroup(c.Clock())
	results := make([]bool, 2)
	for i, from := range []simnet.Region{regions.California, regions.Singapore} {
		g.Go(func() {
			committed, _, _ := submit(t, c, from, []txn.Op{
				{Kind: txn.OpAdd, Key: "stock", Delta: -10},
			}, mdcc.ModeFast)
			results[i] = committed
		})
	}
	g.Wait()

	if !results[0] || !results[1] {
		t.Fatalf("concurrent commutative adds should both commit, got %v", results)
	}
	if !c.Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	for _, r := range c.Regions() {
		got, _ := c.Replica(r).ReadLocal("stock")
		if got.Int != 80 {
			t.Errorf("%s: stock=%d, want 80", r, got.Int)
		}
	}
}

func TestBoundViolationAborts(t *testing.T) {
	c := newTestCluster(t, cluster.Config{})
	c.SeedInt("stock", 5, 0, 100)

	committed, err, _ := submit(t, c, regions.Virginia, []txn.Op{
		{Kind: txn.OpAdd, Key: "stock", Delta: -10},
	}, mdcc.ModeFast)
	if committed {
		t.Fatal("bound-violating add committed")
	}
	if !errors.Is(err, mdcc.ErrBound) {
		t.Fatalf("want ErrBound, got %v", err)
	}
	if !c.Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	got, _ := c.Replica(regions.Virginia).ReadLocal("stock")
	if got.Int != 5 {
		t.Errorf("stock=%d, want 5 (unchanged)", got.Int)
	}
}

// TestConflictingSetsAtMostOneWins drives many rounds of two racing writes
// to the same version and checks the safety invariant: never two commits,
// and every replica converges to the winner (or the seed when both abort).
func TestConflictingSetsAtMostOneWins(t *testing.T) {
	for round := 0; round < 10; round++ {
		round := round
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			t.Parallel()
			c := newTestCluster(t, cluster.Config{Seed: int64(1000 + round)})
			c.SeedBytes("k", []byte("seed"))

			type result struct {
				committed bool
				val       string
			}
			g := vclock.NewGroup(c.Clock())
			results := make([]result, 2)
			origins := []simnet.Region{regions.California, regions.Tokyo}
			for i := range origins {
				g.Go(func() {
					val := fmt.Sprintf("writer-%d", i)
					committed, _, _ := submit(t, c, origins[i], []txn.Op{
						{Kind: txn.OpSet, Key: "k", Value: []byte(val), ReadVersion: 0},
					}, mdcc.ModeFast)
					results[i] = result{committed, val}
				})
			}
			g.Wait()

			if results[0].committed && results[1].committed {
				t.Fatal("SAFETY: both conflicting writes committed")
			}
			if !c.Quiesce(5 * time.Second) {
				t.Fatal("network did not quiesce")
			}
			want := "seed"
			for _, r := range results {
				if r.committed {
					want = r.val
				}
			}
			for _, region := range c.Regions() {
				got, _ := c.Replica(region).ReadLocal("k")
				if string(got.Bytes) != want {
					t.Errorf("%s: value %q, want %q", region, got.Bytes, want)
				}
			}
		})
	}
}

func TestClassicModeSerializesConflicts(t *testing.T) {
	c := newTestCluster(t, cluster.Config{MasterRegion: regions.Virginia})
	c.SeedBytes("k", []byte("seed"))

	g := vclock.NewGroup(c.Clock())
	committedCount := make(chan bool, 2)
	for _, from := range []simnet.Region{regions.California, regions.Ireland} {
		g.Go(func() {
			committed, _, _ := submit(t, c, from, []txn.Op{
				{Kind: txn.OpSet, Key: "k", Value: []byte(string(from)), ReadVersion: 0},
			}, mdcc.ModeClassic)
			committedCount <- committed
		})
	}
	g.Wait()
	close(committedCount)

	n := 0
	for ok := range committedCount {
		if ok {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("classic mode: %d of 2 conflicting writes committed, want exactly 1", n)
	}
}

func TestTimeoutUnderPartition(t *testing.T) {
	c := newTestCluster(t, cluster.Config{CommitTimeout: 500 * time.Millisecond})
	c.SeedBytes("k", []byte("v0"))

	// Isolate enough regions that no fast or classic quorum can form.
	for _, r := range []simnet.Region{regions.Virginia, regions.Ireland, regions.Singapore} {
		c.Net.SetRegionDown(r, true)
	}
	committed, err, _ := submit(t, c, regions.California, []txn.Op{
		{Kind: txn.OpSet, Key: "k", Value: []byte("v1"), ReadVersion: 0},
	}, mdcc.ModeFast)
	if committed {
		t.Fatal("committed without quorum")
	}
	if !errors.Is(err, mdcc.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestMessageLossStillCommits(t *testing.T) {
	// With 10% loss the fast path often misses its quorum, but fallback
	// plus decide-carried options must still converge every replica that
	// hears the decision; the transaction itself must decide either way.
	c := newTestCluster(t, cluster.Config{LossRate: 0.10, Seed: 7, CommitTimeout: 2 * time.Second})
	c.SeedInt("n", 0, -1_000_000, 1_000_000)

	decided := 0
	committedCount := 0
	for i := 0; i < 20; i++ {
		committed, err, _ := submit(t, c, regions.California, []txn.Op{
			{Kind: txn.OpAdd, Key: "n", Delta: 1},
		}, mdcc.ModeFast)
		decided++
		if committed {
			committedCount++
		} else if !errors.Is(err, mdcc.ErrTimeout) && !errors.Is(err, mdcc.ErrConflict) &&
			!errors.Is(err, mdcc.ErrAmbiguous) && !errors.Is(err, mdcc.ErrBound) {
			t.Fatalf("unexpected abort error: %v", err)
		}
	}
	if decided != 20 {
		t.Fatalf("only %d/20 transactions decided", decided)
	}
	if committedCount == 0 {
		t.Fatal("no transaction committed despite only 10%% loss")
	}
}

func TestWALRecordsDecisions(t *testing.T) {
	c := newTestCluster(t, cluster.Config{WAL: true})
	c.SeedInt("n", 0, 0, 100)

	committed, err, _ := submit(t, c, regions.California, []txn.Op{
		{Kind: txn.OpAdd, Key: "n", Delta: 5},
	}, mdcc.ModeFast)
	if !committed || err != nil {
		t.Fatalf("commit failed: %v", err)
	}
	if !c.Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	for _, r := range c.Regions() {
		w := c.WALOf(r)
		if w == nil || len(w.Commits()) != 1 {
			t.Errorf("%s: WAL commits = %v, want 1 entry", r, w.Commits())
		}
	}
}

func TestQuorumSizes(t *testing.T) {
	cases := []struct{ n, classic, fast int }{
		{3, 2, 3},
		{5, 3, 4},
		{7, 4, 6},
	}
	for _, tc := range cases {
		if got := mdcc.ClassicQuorum(tc.n); got != tc.classic {
			t.Errorf("ClassicQuorum(%d)=%d, want %d", tc.n, got, tc.classic)
		}
		if got := mdcc.FastQuorum(tc.n); got != tc.fast {
			t.Errorf("FastQuorum(%d)=%d, want %d", tc.n, got, tc.fast)
		}
	}
}
