package mdcc_test

import (
	"reflect"
	"testing"
	"time"

	"planet/internal/cluster"
	"planet/internal/mdcc"
	"planet/internal/regions"
	"planet/internal/txn"
)

// TestSeedImageIsSharedAndLazy: a range seed lands once, in the one image
// every region of a cluster.New shares, and builds no record anywhere. A
// committed Add then builds exactly its own key's record on every replica
// the transaction reached.
func TestSeedImageIsSharedAndLazy(t *testing.T) {
	c := newTestCluster(t, cluster.Config{})
	c.SeedIntRange("k-", 100_000, 5, 0, 1<<40)

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
		[]txn.Op{{Kind: txn.OpAdd, Key: "k-004242", Delta: 1}}, mdcc.ModeFast)
	if !committed || err != nil {
		t.Fatalf("want commit, got committed=%v err=%v", committed, err)
	}
	if !c.Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	for _, r := range c.Regions() {
		rep := c.Replica(r)
		if v, _ := rep.ReadLocal("k-004242"); v.Int != 6 || v.Version != 1 {
			t.Fatalf("%s: k-004242 = %+v, want 6 at version 1", r, v)
		}
		if !rep.HasRecord("k-004242") || rep.RecordCount() != 1 {
			t.Fatalf("%s holds %d records, want exactly k-004242's", r, rep.RecordCount())
		}
	}
}

// TestSeedImageReadsUntouchedKeys: a seeded key no transaction touched,
// seeded alone or as part of a range, reads through ReadLocal and Snapshot
// at version 0, and reading it builds no record.
func TestSeedImageReadsUntouchedKeys(t *testing.T) {
	c := newTestCluster(t, cluster.Config{})
	c.SeedBytes("doc", []byte("v0"))
	c.SeedInt("n", 7, 0, 10)
	c.SeedBytesRange("r-", 2, []byte("rv"))
	rep := c.Replica(regions.Tokyo)

	if v, ok := rep.ReadLocal("doc"); !ok || string(v.Bytes) != "v0" || v.Version != 0 || v.IsInt {
		t.Fatalf("doc = %+v (found %v), want \"v0\" at version 0", v, ok)
	}
	if v, ok := rep.ReadLocal("n"); !ok || v.Int != 7 || v.Version != 0 || !v.IsInt {
		t.Fatalf("n = %+v (found %v), want 7 at version 0", v, ok)
	}
	if v, ok := rep.ReadLocal("r-000001"); !ok || string(v.Bytes) != "rv" || v.Version != 0 || v.IsInt {
		t.Fatalf("r-000001 = %+v (found %v), want \"rv\" at version 0", v, ok)
	}
	if _, ok := rep.ReadLocal("absent"); ok {
		t.Fatal("an unseeded key reads as present")
	}
	want := map[string]mdcc.Value{
		"doc":      {Bytes: []byte("v0")},
		"n":        {Int: 7, IsInt: true},
		"r-000000": {Bytes: []byte("rv")},
		"r-000001": {Bytes: []byte("rv")},
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
	const accounts = 1000
	c.SeedIntRange("acct-", accounts, 100, 0, 1000)
	c.SeedBytes("doc", []byte("v0"))
	for _, key := range []string{"acct-000001", "acct-000002", "acct-000001"} {
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
	if len(before) != accounts+1 || before["acct-000001"].Int != 80 || before["acct-000003"].Version != 0 {
		t.Fatalf("pre-crash snapshot: %d keys, acct-000001 %+v, acct-000003 %+v", len(before), before["acct-000001"], before["acct-000003"])
	}

	if err := c.CrashReplica(regions.Ireland); err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.ReadLocal("acct-000003"); ok {
		t.Fatal("a crashed replica serves an untouched seeded key")
	}
	if _, ok := rep.ReadLocal("acct-000001"); ok {
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
	if n := rep.RecordCount(); n != 2 || !rep.HasRecord("acct-000001") || !rep.HasRecord("acct-000002") {
		t.Fatalf("Restore built %d records, want acct-000001 and acct-000002 only", n)
	}
}

// TestRangeSeedCoversExactlyItsKeys: a range covers keyspace.Key(prefix, i)
// for 0 ≤ i < n and nothing else. Near misses (a short or over-padded
// index, a trailing byte, the bare prefix, another prefix, i == n) read as
// unseeded.
func TestRangeSeedCoversExactlyItsKeys(t *testing.T) {
	c := newTestCluster(t, cluster.Config{})
	c.SeedIntRange("p-", 10, 1, 0, 10)
	rep := c.Replica(regions.Ireland)
	for _, key := range []string{"p-000000", "p-000001", "p-000009"} {
		if v, ok := rep.ReadLocal(key); !ok || v.Int != 1 || v.Version != 0 {
			t.Errorf("%s = %+v (found %v), want 1 at version 0", key, v, ok)
		}
	}
	for _, key := range []string{"p-00001", "p-0000001", "p-000001x", "p-", "q-000001", "p-000010"} {
		if v, ok := rep.ReadLocal(key); ok {
			t.Errorf("%s reads as seeded: %+v", key, v)
		}
	}
	if got := len(rep.Snapshot()); got != 10 {
		t.Errorf("snapshot holds %d keys, want the range's 10", got)
	}
}
