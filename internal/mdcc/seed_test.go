package mdcc_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"planet/internal/cluster"
	"planet/internal/mdcc"
	"planet/internal/regions"
	"planet/internal/txn"
)

// TestSeedImageIsSharedAndLazy: a bulk seed lands once, in the one image
// every region of a cluster.New shares, and builds no record anywhere. A
// committed Add then builds exactly its own key's record on every replica
// the transaction reached.
func TestSeedImageIsSharedAndLazy(t *testing.T) {
	c := newTestCluster(t, cluster.Config{})
	keys := make([]string, 100_000)
	for i := range keys {
		keys[i] = fmt.Sprintf("k-%d", i)
	}
	c.SeedIntAll(keys, 5, 0, 1<<40)

	image := c.Replica(c.Regions()[0]).Seeds()
	for _, r := range c.Regions() {
		rep := c.Replica(r)
		if rep.Seeds() != image {
			t.Fatalf("%s builds from its own seed image", r)
		}
		if n := rep.RecordCount(); n != 0 {
			t.Fatalf("%s holds %d records after seeding, want 0", r, n)
		}
	}

	committed, err, _ := submit(t, c, regions.California,
		[]txn.Op{{Kind: txn.OpAdd, Key: "k-4242", Delta: 1}}, mdcc.ModeFast)
	if !committed || err != nil {
		t.Fatalf("want commit, got committed=%v err=%v", committed, err)
	}
	if !c.Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	for _, r := range c.Regions() {
		rep := c.Replica(r)
		if v, _ := rep.ReadLocal("k-4242"); v.Int != 6 || v.Version != 1 {
			t.Fatalf("%s: k-4242 = %+v, want 6 at version 1", r, v)
		}
		if !rep.HasRecord("k-4242") || rep.RecordCount() != 1 {
			t.Fatalf("%s holds %d records, want exactly k-4242's", r, rep.RecordCount())
		}
	}
}

// TestSeedImageReadsUntouchedKeys: a seeded key no transaction touched reads
// through ReadLocal and Snapshot at version 0, and reading it builds no
// record.
func TestSeedImageReadsUntouchedKeys(t *testing.T) {
	c := newTestCluster(t, cluster.Config{})
	c.SeedBytes("doc", []byte("v0"))
	c.SeedInt("n", 7, 0, 10)
	rep := c.Replica(regions.Tokyo)

	if v, ok := rep.ReadLocal("doc"); !ok || string(v.Bytes) != "v0" || v.Version != 0 || v.IsInt {
		t.Fatalf("doc = %+v (found %v), want \"v0\" at version 0", v, ok)
	}
	if v, ok := rep.ReadLocal("n"); !ok || v.Int != 7 || v.Version != 0 || !v.IsInt {
		t.Fatalf("n = %+v (found %v), want 7 at version 0", v, ok)
	}
	if _, ok := rep.ReadLocal("absent"); ok {
		t.Fatal("an unseeded key reads as present")
	}
	want := map[string]mdcc.Value{
		"doc": {Bytes: []byte("v0")},
		"n":   {Int: 7, IsInt: true},
	}
	if got := rep.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot %+v, want %+v", got, want)
	}
	if n := rep.RecordCount(); n != 0 {
		t.Fatalf("reads built %d records", n)
	}
}

// TestCrashedReplicaReadsNothingRestoreReplaysWAL: the seed image survives a
// crash, but a crashed replica serves nothing from it. Restore replays the
// WAL over the image: the snapshot returns to its pre-crash value, and only
// the keys the WAL names get records.
func TestCrashedReplicaReadsNothingRestoreReplaysWAL(t *testing.T) {
	c := newTestCluster(t, cluster.Config{WAL: true})
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct-%d", i)
	}
	c.SeedIntAll(keys, 100, 0, 1000)
	c.SeedBytes("doc", []byte("v0"))
	for _, key := range []string{"acct-1", "acct-2", "acct-1"} {
		committed, err, _ := submit(t, c, regions.California,
			[]txn.Op{{Kind: txn.OpAdd, Key: key, Delta: -10}}, mdcc.ModeFast)
		if !committed || err != nil {
			t.Fatalf("want commit, got committed=%v err=%v", committed, err)
		}
	}
	if !c.Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	rep := c.Replica(regions.Ireland)
	before := rep.Snapshot()
	if len(before) != len(keys)+1 || before["acct-1"].Int != 80 || before["acct-3"].Version != 0 {
		t.Fatalf("pre-crash snapshot: %d keys, acct-1 %+v, acct-3 %+v", len(before), before["acct-1"], before["acct-3"])
	}

	if err := c.CrashReplica(regions.Ireland); err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.ReadLocal("acct-3"); ok {
		t.Fatal("a crashed replica serves an untouched seeded key")
	}
	if _, ok := rep.ReadLocal("acct-1"); ok {
		t.Fatal("a crashed replica serves a committed key")
	}
	if snap := rep.Snapshot(); len(snap) != 0 {
		t.Fatalf("a crashed replica's snapshot holds %d keys", len(snap))
	}

	if err := c.RestartReplica(regions.Ireland); err != nil {
		t.Fatal(err)
	}
	if after := rep.Snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatal("snapshot after Restore differs from the pre-crash snapshot")
	}
	if n := rep.RecordCount(); n != 2 || !rep.HasRecord("acct-1") || !rep.HasRecord("acct-2") {
		t.Fatalf("Restore built %d records, want acct-1 and acct-2 only", n)
	}
}
