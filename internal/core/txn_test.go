package planet

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"planet/internal/cluster"
	"planet/internal/txn"
)

// TestTxnReadWriteSets pins the map semantics of a transaction's read and
// write sets: a repeated Read keeps the last version seen, a blind Set
// captures the current version, Adds accumulate, Set and Add on one key fail
// at Commit in either order, and the write set comes out sorted by key.
func TestTxnReadWriteSets(t *testing.T) {
	c, err := cluster.New(cluster.Config{Seed: 11, VirtualTime: true, CommitTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		c.Quiesce(2 * time.Second)
	}()
	for _, k := range []string{"a", "b", "c", "m", "z"} {
		c.SeedBytes(k, []byte(k+"0"))
	}
	c.SeedInt("n", 0, -100, 100)
	db, err := Open(Config{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.Session(c.Regions()[0])
	if err != nil {
		t.Fatal(err)
	}
	// bump commits a new value of key and waits until the local replica
	// serves it, returning the new version.
	bump := func(t *testing.T, key string) int64 {
		tx := s.Begin()
		tx.Set(key, []byte(key+"+"))
		h, err := tx.Commit(CommitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out := h.Wait(); !out.Committed {
			t.Fatalf("bump %s: %v", key, out)
		}
		c.Quiesce(2 * time.Second)
		_, ver, err := s.ReadBytes(key)
		if err != nil || ver == 0 {
			t.Fatalf("after bump %s: version %d, err %v", key, ver, err)
		}
		return ver
	}

	cases := []struct {
		name string
		// build fills the transaction and returns the options it must yield.
		build   func(t *testing.T, tx *Txn) []txn.Op
		wantErr bool
	}{
		{"repeated read keeps the last version", func(t *testing.T, tx *Txn) []txn.Op {
			if _, err := tx.Read("b"); err != nil {
				t.Fatal(err)
			}
			ver := bump(t, "b")
			if _, err := tx.Read("b"); err != nil {
				t.Fatal(err)
			}
			tx.Set("b", []byte("b!"))
			return []txn.Op{{Kind: txn.OpSet, Key: "b", Value: []byte("b!"), ReadVersion: ver}}
		}, false},
		{"blind set captures the current version", func(t *testing.T, tx *Txn) []txn.Op {
			ver := bump(t, "c")
			tx.Set("c", []byte("c!"))
			tx.Set("new", []byte("x"))
			return []txn.Op{
				{Kind: txn.OpSet, Key: "c", Value: []byte("c!"), ReadVersion: ver},
				{Kind: txn.OpSet, Key: "new", Value: []byte("x"), ReadVersion: 0},
			}
		}, false},
		{"adds accumulate", func(t *testing.T, tx *Txn) []txn.Op {
			tx.Add("n", 2)
			tx.Add("n", 3)
			return []txn.Op{{Kind: txn.OpAdd, Key: "n", Delta: 5}}
		}, false},
		{"write set sorted by key", func(t *testing.T, tx *Txn) []txn.Op {
			tx.Add("z", 1)
			tx.Set("a", []byte("a!"))
			tx.Add("m", -1)
			if _, err := tx.ReadInt("n"); err != nil {
				t.Fatal(err)
			}
			return []txn.Op{
				{Kind: txn.OpSet, Key: "a", Value: []byte("a!")},
				{Kind: txn.OpAdd, Key: "m", Delta: -1},
				{Kind: txn.OpAdd, Key: "z", Delta: 1},
			}
		}, false},
		{"set then add fails", func(t *testing.T, tx *Txn) []txn.Op {
			tx.Set("n", []byte("1"))
			tx.Add("n", 1)
			return nil
		}, true},
		{"add then set fails", func(t *testing.T, tx *Txn) []txn.Op {
			tx.Add("n", 1)
			tx.Set("n", []byte("1"))
			return nil
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tx := s.Begin()
			want := tc.build(t, tx)
			ops, err := tx.ops()
			if tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), "mixes Set and Add") {
					t.Fatalf("ops() error = %v, want a Set/Add mix", err)
				}
				if _, err := tx.Commit(CommitOptions{}); err == nil {
					t.Fatal("Commit accepted a Set/Add mix")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ops, want) {
				t.Fatalf("ops = %+v, want %+v", ops, want)
			}
			keys := make([]string, len(want))
			for i, op := range want {
				keys[i] = op.Key
			}
			if got := tx.Keys(); !reflect.DeepEqual(got, keys) {
				t.Fatalf("Keys = %v, want %v", got, keys)
			}
		})
	}
}
