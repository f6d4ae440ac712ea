package mdcc

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"planet/internal/txn"
)

func sampleEntries() []Entry {
	return []Entry{
		{Txn: 1, Commit: true, Options: []txn.Op{{Kind: txn.OpSet, Key: "a", Value: []byte("x"), ReadVersion: 0}}, At: time.Unix(100, 0).UTC()},
		{Txn: 2, Commit: false, Options: []txn.Op{{Kind: txn.OpAdd, Key: "b", Delta: -3}}, At: time.Unix(101, 0).UTC()},
		{Txn: 3, Commit: true, Options: []txn.Op{{Kind: txn.OpAdd, Key: "b", Delta: 7}}, At: time.Unix(102, 0).UTC()},
	}
}

func TestWALAppendAndCommits(t *testing.T) {
	w := NewWAL(nil)
	for _, e := range sampleEntries() {
		w.Append(e)
	}
	if w.Len() != 3 {
		t.Errorf("len=%d", w.Len())
	}
	commits := w.Commits()
	if len(commits) != 2 || commits[0].Txn != 1 || commits[1].Txn != 3 {
		t.Errorf("commits=%v", commits)
	}
	if w.Err() != nil {
		t.Errorf("unexpected sink error: %v", w.Err())
	}
}

func TestWALReplayOrderAndStop(t *testing.T) {
	w := NewWAL(nil)
	for _, e := range sampleEntries() {
		w.Append(e)
	}
	var ids []txn.ID
	if err := w.Replay(func(e Entry) error {
		ids = append(ids, e.Txn)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Errorf("replay order %v", ids)
	}

	stop := errors.New("stop")
	count := 0
	err := w.Replay(func(Entry) error {
		count++
		if count == 2 {
			return stop
		}
		return nil
	})
	if err == nil || !errors.Is(err, stop) {
		t.Errorf("replay stop error=%v", err)
	}
	if count != 2 {
		t.Errorf("replay visited %d entries after stop", count)
	}
}

func TestWALSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	in := sampleEntries()
	for _, e := range in {
		w.Append(e)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	out, _, torn := readWAL(&buf)
	if torn {
		t.Fatal("an intact log decoded as torn")
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Txn != in[i].Txn || out[i].Commit != in[i].Commit {
			t.Errorf("entry %d: %+v != %+v", i, out[i], in[i])
		}
		if len(out[i].Options) != len(in[i].Options) {
			t.Errorf("entry %d options differ", i)
			continue
		}
		for j := range in[i].Options {
			if out[i].Options[j].Key != in[i].Options[j].Key ||
				out[i].Options[j].Delta != in[i].Options[j].Delta ||
				string(out[i].Options[j].Value) != string(in[i].Options[j].Value) {
				t.Errorf("entry %d option %d: %+v != %+v", i, j, out[i].Options[j], in[i].Options[j])
			}
		}
	}
}

// TestReadWALRejectsGarbage: a record that is not JSON ends the scan as a
// torn tail, and the prefix before it is kept up to its last byte.
func TestReadWALRejectsGarbage(t *testing.T) {
	const prefix = `{"txn":1}`
	entries, good, torn := readWAL(strings.NewReader(prefix + `{not json`))
	if !torn {
		t.Error("garbage accepted")
	}
	if len(entries) != 1 || entries[0].Txn != 1 || good != int64(len(prefix)) {
		t.Errorf("kept %d entries up to byte %d, want txn 1 up to byte %d", len(entries), good, len(prefix))
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWALSinkErrorSticky(t *testing.T) {
	w := NewWAL(failingWriter{})
	w.Append(Entry{Txn: 1})
	if w.Err() == nil {
		t.Fatal("sink error not reported")
	}
	// Entries still retained in memory despite the failing sink.
	if w.Len() != 1 {
		t.Errorf("len=%d", w.Len())
	}
}

// TestWALStateReconstruction replays a log into a fresh state map and
// checks it matches the direct application — the recovery use case.
func TestWALStateReconstruction(t *testing.T) {
	w := NewWAL(nil)
	w.Append(Entry{Txn: 1, Commit: true, Options: []txn.Op{{Kind: txn.OpAdd, Key: "n", Delta: 5}}})
	w.Append(Entry{Txn: 2, Commit: false, Options: []txn.Op{{Kind: txn.OpAdd, Key: "n", Delta: 100}}})
	w.Append(Entry{Txn: 3, Commit: true, Options: []txn.Op{{Kind: txn.OpAdd, Key: "n", Delta: -2}}})

	state := make(map[string]int64)
	if err := w.Replay(func(e Entry) error {
		if !e.Commit {
			return nil
		}
		for _, op := range e.Options {
			if op.Kind == txn.OpAdd {
				state[op.Key] += op.Delta
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if state["n"] != 3 {
		t.Errorf("reconstructed n=%d, want 3", state["n"])
	}
}
