package mdcc_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"planet/internal/cluster"
	"planet/internal/mdcc"
	"planet/internal/simnet"
	"planet/internal/txn"
	"planet/internal/vclock"
)

// TestRandomizedSafety drives a randomized mixed workload — physical writes
// and bounded commutative deltas over a tiny keyspace from every region,
// fast and classic, concurrently — and then checks the protocol's safety
// invariants:
//
//  1. agreement: all replicas converge to identical values and versions;
//  2. version accounting: each key's version equals its committed writes;
//  3. serializability of physical writes: committed Sets on a key have
//     distinct, consecutive read-versions (no lost updates);
//  4. demarcation: integer values equal seed + sum of committed deltas and
//     never leave their bounds;
//  5. WAL agreement: every replica's log commits exactly the same
//     transaction set.
func TestRandomizedSafety(t *testing.T) {
	for round := 0; round < 6; round++ {
		round := round
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			t.Parallel()
			runSafetyRound(t, int64(9000+round))
		})
	}
}

// TestRandomizedSafetyDeterminism runs one round's generator twice with one
// seed: the per-transaction verdicts and the final replica snapshots must be
// identical, since the whole round runs on the cluster's virtual clock.
// verify.sh runs it repeatedly.
func TestRandomizedSafetyDeterminism(t *testing.T) {
	a := runSafetyRound(t, 9000)
	b := runSafetyRound(t, 9000)
	if a != b {
		t.Fatalf("same seed, different rounds:\n--- run A\n%s\n--- run B\n%s", a, b)
	}
}

type committedOp struct {
	op txn.Op
}

// runSafetyRound runs one randomized round, checks the invariants, and
// returns what it observed: each client's verdicts in submission order and
// every region's final value of every key.
func runSafetyRound(t *testing.T, seed int64) string {
	c, err := cluster.New(cluster.Config{TimeScale: 0.01, Seed: seed, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		c.Quiesce(2 * time.Second)
	}()

	const (
		nSetKeys = 3
		nIntKeys = 2
		seedInt  = 50
		boundLo  = 0
		boundHi  = 100
		clients  = 10
		perCli   = 8
	)
	setKeys := make([]string, nSetKeys)
	for i := range setKeys {
		setKeys[i] = fmt.Sprintf("set-%d", i)
		c.SeedBytes(setKeys[i], []byte("seed"))
	}
	intKeys := make([]string, nIntKeys)
	for i := range intKeys {
		intKeys[i] = fmt.Sprintf("int-%d", i)
		c.SeedInt(intKeys[i], seedInt, boundLo, boundHi)
	}

	var (
		mu        sync.Mutex
		committed []committedOp
		verdicts  [clients][perCli]bool
	)
	g := vclock.NewGroup(c.Clock())
	regionList := c.Regions()
	for cl := 0; cl < clients; cl++ {
		rng := rand.New(rand.NewSource(seed + int64(cl)*31))
		region := regionList[cl%len(regionList)]
		g.Go(func() {
			coord := c.Coordinator(region)
			rep := c.Replica(region)
			for i := 0; i < perCli; i++ {
				mode := mdcc.ModeFast
				if rng.Intn(3) == 0 {
					mode = mdcc.ModeClassic
				}
				var ops []txn.Op
				if rng.Intn(2) == 0 {
					key := setKeys[rng.Intn(nSetKeys)]
					v, _ := rep.ReadLocal(key)
					ops = append(ops, txn.Op{
						Kind: txn.OpSet, Key: key,
						Value:       []byte(fmt.Sprintf("w-%d-%d", seed, rng.Int63())),
						ReadVersion: v.Version,
					})
				} else {
					key := intKeys[rng.Intn(nIntKeys)]
					ops = append(ops, txn.Op{
						Kind: txn.OpAdd, Key: key, Delta: int64(rng.Intn(21) - 10),
					})
				}
				sink := newWaitSink(c)
				if err := coord.Submit(txn.NewID(), ops, mode, sink); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ok, _ := sink.wait(t)
				verdicts[cl][i] = ok
				if ok {
					mu.Lock()
					for _, op := range ops {
						committed = append(committed, committedOp{op})
					}
					mu.Unlock()
				}
			}
		})
	}
	g.Wait()
	if !c.Quiesce(10 * time.Second) {
		t.Fatal("network did not quiesce")
	}

	// Committed write counts per key.
	writesPerKey := make(map[string]int)
	deltaPerKey := make(map[string]int64)
	versionsSeen := make(map[string]map[int64]int) // key -> readVersion -> count
	for _, co := range committed {
		writesPerKey[co.op.Key]++
		if co.op.Kind == txn.OpAdd {
			deltaPerKey[co.op.Key] += co.op.Delta
		} else {
			m := versionsSeen[co.op.Key]
			if m == nil {
				m = make(map[int64]int)
				versionsSeen[co.op.Key] = m
			}
			m[co.op.ReadVersion]++
		}
	}

	// Invariant 3: committed Sets on a key never share a read-version.
	for key, vs := range versionsSeen {
		for rv, n := range vs {
			if n > 1 {
				t.Errorf("LOST UPDATE: %d committed Sets on %s at read-version %d", n, key, rv)
			}
		}
	}

	// Invariants 1, 2, 4: converged replicas with exact accounting.
	ref := make(map[string]mdcc.Value)
	first := regionList[0]
	for _, key := range append(append([]string{}, setKeys...), intKeys...) {
		v, ok := c.Replica(first).ReadLocal(key)
		if !ok {
			t.Fatalf("%s missing at %s", key, first)
		}
		ref[key] = v
		if int(v.Version) != writesPerKey[key] {
			t.Errorf("%s: version %d != %d committed writes", key, v.Version, writesPerKey[key])
		}
	}
	for _, key := range intKeys {
		want := int64(seedInt) + deltaPerKey[key]
		if ref[key].Int != want {
			t.Errorf("%s: value %d != seed+deltas %d", key, ref[key].Int, want)
		}
		if ref[key].Int < boundLo || ref[key].Int > boundHi {
			t.Errorf("%s: value %d outside bounds [%d,%d]", key, ref[key].Int, boundLo, boundHi)
		}
	}
	for _, region := range regionList[1:] {
		for key, want := range ref {
			got, ok := c.Replica(region).ReadLocal(key)
			if !ok || got.Version != want.Version || got.Int != want.Int ||
				string(got.Bytes) != string(want.Bytes) {
				t.Errorf("DIVERGENCE on %s: %s has (v%d,%q,%d), %s has (v%d,%q,%d)",
					key, first, want.Version, want.Bytes, want.Int,
					region, got.Version, got.Bytes, got.Int)
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "verdicts %v\n", verdicts)
	for _, region := range regionList {
		for _, key := range append(append([]string{}, setKeys...), intKeys...) {
			v, _ := c.Replica(region).ReadLocal(key)
			fmt.Fprintf(&b, "%s/%s: v%d %q %d\n", region, key, v.Version, v.Bytes, v.Int)
		}
	}

	// Invariant 5: identical committed-transaction sets in every WAL.
	refCommits := walCommitSet(t, c, first)
	for _, region := range regionList[1:] {
		got := walCommitSet(t, c, region)
		if len(got) != len(refCommits) {
			t.Errorf("WAL size mismatch: %s has %d commits, %s has %d",
				first, len(refCommits), region, len(got))
			continue
		}
		for id := range refCommits {
			if !got[id] {
				t.Errorf("WAL at %s missing commit %v", region, id)
			}
		}
	}
	return b.String()
}

func walCommitSet(t *testing.T, c *cluster.Cluster, region simnet.Region) map[txn.ID]bool {
	t.Helper()
	out := make(map[txn.ID]bool)
	w := c.WALOf(region)
	if w == nil {
		t.Fatalf("no WAL at %v", region)
	}
	for _, e := range w.Commits() {
		out[e.Txn] = true
	}
	return out
}
