package mdcc

import (
	"fmt"
	"sync"
	"testing"

	"planet/internal/keyspace"
	"planet/internal/simnet"
	"planet/internal/txn"
)

// TestRecordStoreConcurrentReads: local reads and snapshots from other
// goroutines run beside the protocol handlers building and mutating records
// on the same replica, and beside seeds of fresh keys and ranges. r.mu guards the one
// record map, so this stays race-free (run under -race in verify.sh), and
// every key ends at the sum of its committed adds.
func TestRecordStoreConcurrentReads(t *testing.T) {
	r := newLoneReplica(t, 1)
	coord := simnet.Addr{Region: "a", Name: "coord"}
	const keys, rounds = 64, 20
	for i := 0; i < keys; i += 2 {
		r.SeedInt(fmt.Sprintf("k-%d", i), 0, -1<<40, 1<<40)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.ReadLocal(fmt.Sprintf("k-%d", i%keys))
				if i%16 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; i < keys; i++ {
			r.SeedInt(fmt.Sprintf("fresh-%d", i), 1, 0, 10)
			r.cfg.Seeds.SeedIntRange(fmt.Sprintf("range-%d-", i), 4, 2, 0, 10)
		}
	}()
	id := txn.ID(0)
	for round := 0; round < rounds; round++ {
		for i := 0; i < keys; i++ {
			id++
			ops := []txn.Op{{Kind: txn.OpAdd, Key: fmt.Sprintf("k-%d", i), Delta: 1}}
			r.HandlePropose(id, coord, ops)
			r.HandleDecide(id, true, ops)
		}
	}
	close(stop)
	readers.Wait()

	snap := r.Snapshot()
	for i := 0; i < keys; i++ {
		v, ok := r.ReadLocal(fmt.Sprintf("k-%d", i))
		if !ok || v.Int != rounds || v.Version != rounds {
			t.Fatalf("k-%d = %+v (found %v), want %d at version %d", i, v, ok, rounds, rounds)
		}
		if s := snap[fmt.Sprintf("k-%d", i)]; s.Int != v.Int || s.Version != v.Version {
			t.Fatalf("snapshot of k-%d = %+v, ReadLocal %+v", i, s, v)
		}
	}
	if v := snap["fresh-7"]; v.Int != 1 || v.Version != 0 {
		t.Fatalf("fresh-7 = %+v, want the seed at version 0", v)
	}
	if v := snap["range-7-000003"]; v.Int != 2 || v.Version != 0 {
		t.Fatalf("range-7-000003 = %+v, want the range seed at version 0", v)
	}
}

// TestReseedKeepsProtocolState: re-seeding a key the protocol has touched
// replaces only the seeded value fields. The committed version, the pending
// options and the Paxos promise survive, and a record built later from the
// image carries the same fields as one that was re-seeded in place.
func TestReseedKeepsProtocolState(t *testing.T) {
	r := newLoneReplica(t, 5)
	coord := simnet.Addr{Region: "a", Name: "coord"}
	r.SeedInt("n", 10, 0, 100)
	r.HandlePropose(1, coord, []txn.Op{addOp("n", 5)})
	r.HandleDecide(1, true, []txn.Op{addOp("n", 5)})
	r.HandlePropose(2, coord, []txn.Op{addOp("n", 1)})
	r.exec("", phase1aMsg{Key: "n", Ballot: 3, Master: simnet.Addr{Region: "b", Name: "replica"}})

	r.SeedInt("n", 50, 0, 1000)
	v, ok := r.ReadLocal("n")
	if !ok || v.Int != 50 || v.Version != 1 {
		t.Fatalf("after re-seed: %+v (found %v), want 50 at version 1", v, ok)
	}
	if got := r.PendingCount("n"); got != 1 {
		t.Fatalf("re-seed dropped pendings: %d left, want 1", got)
	}
	if rc := r.rec("n"); rc.promised != 3 || rc.hi != 1000 {
		t.Fatalf("after re-seed: promised %d hi %d, want 3 and 1000", rc.promised, rc.hi)
	}

	r.SeedBytes("s", []byte("v0"))
	r.HandleDecide(3, true, []txn.Op{setOp("s", 0)})
	r.SeedBytes("s", []byte("again"))
	if v, _ := r.ReadLocal("s"); string(v.Bytes) != "again" || v.Version != 1 {
		t.Fatalf("byte re-seed: %q at version %d, want \"again\" at version 1", v.Bytes, v.Version)
	}

	// A byte seed over an integer seed keeps the integer fields, whether the
	// record was built before the second seed or after it.
	r.SeedInt("early", 7, 0, 10)
	r.rec("early")
	r.SeedBytes("early", []byte("x"))
	r.SeedInt("late", 7, 0, 10)
	r.SeedBytes("late", []byte("x"))
	early, late := *r.rec("early"), *r.rec("late")
	if early.ival != 7 || !early.bounded || early.isInt || string(early.bytes) != "x" {
		t.Fatalf("early record %+v", early)
	}
	if early.ival != late.ival || early.isInt != late.isInt || early.bounded != late.bounded ||
		early.lo != late.lo || early.hi != late.hi || string(early.bytes) != string(late.bytes) {
		t.Fatalf("record built after the re-seed %+v differs from one re-seeded in place %+v", late, early)
	}
}

// TestRangeReseedKeepsProtocolState: a range re-seed of a record the
// protocol already built replaces only the seeded value fields, exactly as a
// per-key re-seed does. Untouched keys of the range read the new seed.
func TestRangeReseedKeepsProtocolState(t *testing.T) {
	r := newLoneReplica(t, 5)
	coord := simnet.Addr{Region: "a", Name: "coord"}
	key := keyspace.Key("n-", 2)
	r.cfg.Seeds.SeedIntRange("n-", 4, 10, 0, 100)
	r.HandlePropose(1, coord, []txn.Op{addOp(key, 5)})
	r.HandleDecide(1, true, []txn.Op{addOp(key, 5)})
	r.HandlePropose(2, coord, []txn.Op{addOp(key, 1)})
	r.exec("", phase1aMsg{Key: key, Ballot: 3, Master: simnet.Addr{Region: "b", Name: "replica"}})

	r.cfg.Seeds.SeedIntRange("n-", 4, 50, 0, 1000)
	if v, ok := r.ReadLocal(key); !ok || v.Int != 50 || v.Version != 1 {
		t.Fatalf("after range re-seed: %+v (found %v), want 50 at version 1", v, ok)
	}
	if got := r.PendingCount(key); got != 1 {
		t.Fatalf("range re-seed dropped pendings: %d left, want 1", got)
	}
	if rc := r.rec(key); rc.promised != 3 || rc.hi != 1000 {
		t.Fatalf("after range re-seed: promised %d hi %d, want 3 and 1000", rc.promised, rc.hi)
	}
	if v, _ := r.ReadLocal(keyspace.Key("n-", 3)); v.Int != 50 || v.Version != 0 {
		t.Fatalf("untouched range key = %+v, want 50 at version 0", v)
	}
	if n := r.RecordCount(); n != 1 {
		t.Fatalf("range re-seed built %d records, want 1", n)
	}
}

// TestSeedFoldMatchesCallOrder: range seeds and per-key seeds, in either
// order, leave every key with the value fields it would hold had each key a
// range covers been seeded one at a time, in call order. That holds for the
// image, for a record a replica built before the seeds, and for one built
// midway.
func TestSeedFoldMatchesCallOrder(t *testing.T) {
	type call struct {
		prefix string // a range seed over prefix and n, when key is empty
		n      int
		key    string
		isInt  bool
		v      int64
	}
	calls := []call{
		{prefix: "p-", n: 6, isInt: true, v: 1},
		{key: "p-000002", v: 2},                 // a per-key re-seed after a range
		{key: "p-000003", isInt: true, v: 3},    // ... of the other kind
		{prefix: "p-", n: 3, v: 4},              // a range over a per-key entry
		{key: "q-000001", v: 5},                 // a per-key seed no range covers yet
		{prefix: "q-", n: 2, isInt: true, v: 6}, // a range after a per-key seed
		{key: "p-000004", isInt: true, v: 7},
		{prefix: "p-", n: 5, v: 8},
	}
	r := newLoneReplica(t, 1)
	ranged, keyed := r.cfg.Seeds, new(SeedImage)
	early := []string{"p-000002", "p-000004", "q-000001", "p-000005"}
	for _, k := range early {
		r.rec(k)
	}
	for i, c := range calls {
		value := []byte(fmt.Sprint(c.v))
		seedKey := func(img *SeedImage, k string) {
			if c.isInt {
				img.SeedInt(k, c.v, 0, c.v*10)
			} else {
				img.SeedBytes(k, value)
			}
		}
		switch {
		case c.key != "":
			seedKey(ranged, c.key)
			seedKey(keyed, c.key)
		case c.isInt:
			ranged.SeedIntRange(c.prefix, c.n, c.v, 0, c.v*10)
		default:
			ranged.SeedBytesRange(c.prefix, c.n, value)
		}
		for j := range c.n {
			seedKey(keyed, keyspace.Key(c.prefix, j))
		}
		if i == 3 {
			r.rec("p-000001")
		}
	}

	fields := func(rc record) string {
		return fmt.Sprintf("int=%v %d bounded=%v [%d,%d] bytes=%q", rc.isInt, rc.ival, rc.bounded, rc.lo, rc.hi, rc.bytes)
	}
	for _, k := range []string{"p-000000", "p-000001", "p-000002", "p-000003", "p-000004", "p-000005",
		"p-000006", "q-000000", "q-000001", "q-000002", "p-"} {
		got, gotOK := ranged.lookup(k)
		want, wantOK := keyed.lookup(k)
		if gotOK != wantOK || fields(got) != fields(want) {
			t.Errorf("%s: image holds %s (seeded %v), want %s (seeded %v)", k, fields(got), gotOK, fields(want), wantOK)
		}
	}
	for _, k := range append(early, "p-000001") {
		want, _ := keyed.lookup(k)
		if got := *r.rec(k); fields(got) != fields(want) {
			t.Errorf("%s: built record holds %s, want %s", k, fields(got), fields(want))
		}
	}
}
