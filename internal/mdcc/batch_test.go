package mdcc_test

// Tests for the per-destination message batching of the commit protocol:
// per-option semantics on mixed batches, resilience to losing a whole batch
// message, the exact and deterministic message count of a commit, and the
// outcomes and final state the per-option protocol rules derive for a fixed
// transaction sequence.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"planet/internal/cluster"
	"planet/internal/mdcc"
	"planet/internal/regions"
	"planet/internal/txn"
)

// multiOps builds an n-option fast-path transaction over seeded keys.
func multiOps(c *cluster.Cluster, t *testing.T, prefix string, n int) []txn.Op {
	t.Helper()
	ops := make([]txn.Op, n)
	for i := range ops {
		key := fmt.Sprintf("%s-%03d", prefix, i)
		c.SeedBytes(key, []byte("v0"))
		v, ok := c.Replica(regions.California).ReadLocal(key)
		if !ok {
			t.Fatalf("seeded key %s missing", key)
		}
		ops[i] = txn.Op{Kind: txn.OpSet, Key: key, Value: []byte("v1"), ReadVersion: v.Version}
	}
	return ops
}

func TestBatchMixedAcceptReject(t *testing.T) {
	// A batch carrying both acceptable and fatally-rejectable options must
	// produce per-option votes: the stale option's version reject is fatal
	// and aborts the transaction even though its batchmates validate.
	c := newTestCluster(t, cluster.Config{})
	ops := multiOps(c, t, "mixed", 3)
	ops[1].ReadVersion = 99 // stale: no replica has version 99

	committed, err, sink := submit(t, c, regions.California, ops, mdcc.ModeFast)
	if committed {
		t.Fatal("transaction with a fatally stale option committed")
	}
	if err == nil {
		t.Fatal("expected an abort error")
	}
	if kinds := sink.eventKinds(); kinds[mdcc.KindVote] == 0 {
		t.Errorf("expected per-option vote events, got %v", kinds)
	}

	// The batchmates must not have been applied anywhere.
	if !c.Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	for _, r := range c.Regions() {
		for _, op := range ops {
			v, ok := c.Replica(r).ReadLocal(op.Key)
			if !ok || string(v.Bytes) != "v0" {
				t.Errorf("%s/%s: got %q, want untouched v0", r, op.Key, v.Bytes)
			}
		}
	}
}

func TestBatchAllAcceptCommits(t *testing.T) {
	c := newTestCluster(t, cluster.Config{})
	ops := multiOps(c, t, "ok", 4)
	committed, err, _ := submit(t, c, regions.California, ops, mdcc.ModeFast)
	if !committed || err != nil {
		t.Fatalf("want commit, got committed=%v err=%v", committed, err)
	}
	if !c.Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	for _, r := range c.Regions() {
		for _, op := range ops {
			v, _ := c.Replica(r).ReadLocal(op.Key)
			if string(v.Bytes) != "v1" {
				t.Errorf("%s/%s: got %q, want v1", r, op.Key, v.Bytes)
			}
		}
	}
}

func TestBatchPartialLossFastQuorum(t *testing.T) {
	// Cutting one replica→coordinator link loses that replica's entire
	// coalesced vote batch. The fast path must still commit from the
	// remaining four votes (fast quorum of five is four).
	c := newTestCluster(t, cluster.Config{})
	ops := multiOps(c, t, "cut1", 3)
	c.Net.SetLinkCut(regions.Tokyo, regions.California, true)

	committed, err, _ := submit(t, c, regions.California, ops, mdcc.ModeFast)
	if !committed || err != nil {
		t.Fatalf("want commit despite one lost vote batch, got committed=%v err=%v", committed, err)
	}
}

func TestBatchPartialLossClassicQuorum(t *testing.T) {
	// The classic path coalesces phase2a/2b into per-destination batches.
	// Losing two replicas' phase2b batches leaves three of five acceptors —
	// exactly the classic quorum — so the commit must still go through.
	c := newTestCluster(t, cluster.Config{MasterRegion: regions.California})
	ops := multiOps(c, t, "cut2", 3)
	c.Net.SetLinkCut(regions.Tokyo, regions.California, true)
	c.Net.SetLinkCut(regions.Singapore, regions.California, true)

	committed, err, _ := submit(t, c, regions.California, ops, mdcc.ModeClassic)
	if !committed || err != nil {
		t.Fatalf("want classic commit with 3/5 acceptors, got committed=%v err=%v", committed, err)
	}
}

func TestBatchMessageCountDeterministic(t *testing.T) {
	// A fast commit costs one message per replica per protocol step, however
	// many options it carries: a 4-option commit from California on five
	// regions is one propose, one vote batch and one decide per replica,
	// 3 × 5 = 15 messages. Two identical runs send identical counts.
	count := func() uint64 {
		c := newTestCluster(t, cluster.Config{})
		ops := multiOps(c, t, "count", 4)
		before := c.Net.Sent.Load()
		committed, err, _ := submit(t, c, regions.California, ops, mdcc.ModeFast)
		if !committed || err != nil {
			t.Fatalf("want commit, got committed=%v err=%v", committed, err)
		}
		if !c.Quiesce(5 * time.Second) {
			t.Fatal("network did not quiesce")
		}
		return c.Net.Sent.Load() - before
	}

	const want = 3 * 5
	first := count()
	if first != want {
		t.Errorf("4-option fast commit sent %d messages, want %d (propose + vote batch + decide per replica)", first, want)
	}
	if again := count(); again != first {
		t.Errorf("message count not deterministic: %d vs %d", first, again)
	}
}

// TestBatchPerOptionEquivalence pins the batched wire format to the
// per-option protocol rules: every item of a batch is judged as a lone
// option would be, so a fixed transaction sequence must end in the outcomes
// and the final replica state those rules derive, on every replica and for
// every seed. The expected values below are worked out from the rules, not
// recorded from a run. The mix includes multi-key sets spanning masters,
// bounded adds, a bound violation, and a stale read version. Each seed runs
// on the virtual clock, so it is one deterministic schedule.
func TestBatchPerOptionEquivalence(t *testing.T) {
	txns := []struct {
		ops  []txn.Op
		want error // nil: the transaction commits
	}{
		{ // multi-key fast-path set at the seeded version 0, masters spread
			// by key hash: every replica validates every option, so each
			// reaches its fast quorum and the transaction commits
			ops: []txn.Op{
				{Kind: txn.OpSet, Key: "eq-b-0", Value: []byte("a"), ReadVersion: 0},
				{Kind: txn.OpSet, Key: "eq-b-1", Value: []byte("b"), ReadVersion: 0},
				{Kind: txn.OpSet, Key: "eq-b-2", Value: []byte("c"), ReadVersion: 0},
			},
		},
		{ // commutative adds that stay inside [0, 100]: 10+5 and 10-3 commit
			ops: []txn.Op{
				{Kind: txn.OpAdd, Key: "eq-i-0", Delta: 5},
				{Kind: txn.OpAdd, Key: "eq-i-1", Delta: -3},
			},
		},
		{ // 10-50 < 0: every replica refuses with a bound reject, which is fatal
			ops:  []txn.Op{{Kind: txn.OpAdd, Key: "eq-i-2", Delta: -50}},
			want: mdcc.ErrBound,
		},
		{ // read version 7 against version 0: a version reject, also fatal
			ops:  []txn.Op{{Kind: txn.OpSet, Key: "eq-b-3", Value: []byte("x"), ReadVersion: 7}},
			want: mdcc.ErrConflict,
		},
		{ // second write to eq-b-0 at the version the first commit left: commits
			ops: []txn.Op{{Kind: txn.OpSet, Key: "eq-b-0", Value: []byte("a2"), ReadVersion: 1}},
		},
	}
	// Final state on every replica: a committed option bumps its key's
	// version by one, an aborted transaction leaves its keys as seeded.
	wantState := map[string]mdcc.Value{
		"eq-b-0": {Bytes: []byte("a2"), Version: 2},
		"eq-b-1": {Bytes: []byte("b"), Version: 1},
		"eq-b-2": {Bytes: []byte("c"), Version: 1},
		"eq-b-3": {Bytes: []byte("v0"), Version: 0},
		"eq-i-0": {Int: 15, IsInt: true, Version: 1},
		"eq-i-1": {Int: 7, IsInt: true, Version: 1},
		"eq-i-2": {Int: 10, IsInt: true, Version: 0},
		"eq-i-3": {Int: 10, IsInt: true, Version: 0},
	}

	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newTestCluster(t, cluster.Config{Seed: seed})
			for i := 0; i < 4; i++ {
				c.SeedBytes(fmt.Sprintf("eq-b-%d", i), []byte("v0"))
			}
			for i := 0; i < 4; i++ {
				c.SeedInt(fmt.Sprintf("eq-i-%d", i), 10, 0, 100)
			}
			for i, tx := range txns {
				committed, err, _ := submit(t, c, regions.Ireland, tx.ops, mdcc.ModeFast)
				if tx.want == nil && (!committed || err != nil) {
					t.Errorf("txn %d: committed=%v err=%v, want commit", i, committed, err)
				}
				if tx.want != nil && (committed || !errors.Is(err, tx.want)) {
					t.Errorf("txn %d: committed=%v err=%v, want abort with %v", i, committed, err, tx.want)
				}
			}
			if !c.Quiesce(5 * time.Second) {
				t.Fatal("network did not quiesce")
			}
			for _, r := range c.Regions() {
				snap := c.Replica(r).Snapshot()
				if len(snap) != len(wantState) {
					t.Errorf("%s holds %d keys, want %d", r, len(snap), len(wantState))
				}
				for key, w := range wantState {
					got := snap[key]
					if string(got.Bytes) != string(w.Bytes) || got.Int != w.Int ||
						got.IsInt != w.IsInt || got.Version != w.Version {
						t.Errorf("%s/%s = %q int=%d/%v v%d, want %q int=%d/%v v%d", r, key,
							got.Bytes, got.Int, got.IsInt, got.Version, w.Bytes, w.Int, w.IsInt, w.Version)
					}
				}
			}
		})
	}
}
