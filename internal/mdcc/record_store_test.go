package mdcc

import (
	"fmt"
	"sync"
	"testing"

	"planet/internal/simnet"
	"planet/internal/txn"
)

// TestRecordStoreConcurrentReads: local reads and snapshots from other
// goroutines run beside the protocol handlers building and mutating records
// on the same replica, and beside seeds of fresh keys. r.mu guards the one
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
	r.onPhase1a(phase1aMsg{Key: "n", Ballot: 3, Master: simnet.Addr{Region: "b", Name: "replica"}})

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
