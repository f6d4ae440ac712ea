package mdcc

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"planet/internal/txn"
)

// crashFile builds a WAL sink file whose final record is torn mid-write —
// the artifact a process crash leaves behind.
func crashFile(t *testing.T, entries []Entry, cut int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWAL(&buf)
	for _, e := range entries {
		w.Append(e)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if cut <= 0 || cut >= len(raw) {
		return raw
	}
	return raw[:len(raw)-cut]
}

// walOps is shorthand for a single-op entry.
func walOps(op txn.Op) []txn.Op { return []txn.Op{op} }

func TestRecoverWALTornTail(t *testing.T) {
	entries := []Entry{
		{Txn: 1, Commit: true, Options: walOps(txn.Op{Kind: txn.OpSet, Key: "a", Value: []byte("v1")})},
		{Txn: 2, Commit: false, Options: walOps(txn.Op{Kind: txn.OpAdd, Key: "n", Delta: 9})},
		{Txn: 3, Commit: true, Options: walOps(txn.Op{Kind: txn.OpAdd, Key: "n", Delta: 5})},
		{Txn: 4, Commit: true, Options: walOps(txn.Op{Kind: txn.OpSet, Key: "a", Value: []byte("v2"), ReadVersion: 1})},
	}
	// Cut 10 bytes off the file: the final record is torn.
	raw := crashFile(t, entries, 10)

	// The decoder returns the trustworthy prefix, and the offset where it
	// ends is where OpenWALFile truncates: the end of the third record (the
	// newline after a record is not part of it).
	got, good, torn := readWAL(bytes.NewReader(raw))
	if !torn {
		t.Error("readWAL did not report the torn tail")
	}
	if len(got) != 3 {
		t.Fatalf("recovered %d entries, want 3", len(got))
	}
	for i, e := range got {
		if e.Txn != entries[i].Txn || e.Commit != entries[i].Commit {
			t.Errorf("entry %d: %+v != %+v", i, e, entries[i])
		}
	}
	if want := len(crashFile(t, entries[:3], 0)) - 1; good != int64(want) {
		t.Errorf("good prefix ends at byte %d, want %d", good, want)
	}

	// An intact file recovers fully and reports no tear.
	intact := crashFile(t, entries, 0)
	full, good, torn := readWAL(bytes.NewReader(intact))
	if torn || len(full) != len(entries) || good != int64(len(intact)-1) {
		t.Errorf("intact file: %d entries up to byte %d torn=%v, want %d entries up to byte %d torn=false",
			len(full), good, torn, len(entries), len(intact)-1)
	}
}

// TestWALCrashReplayConsistency is the satellite's core scenario: a replica
// crashes mid-commit (its WAL file ends in a torn record), and replaying
// the recovered prefix must land in a consistent record state — committed
// writes from complete entries applied exactly once, aborts skipped, and
// the torn entry contributing nothing.
func TestWALCrashReplayConsistency(t *testing.T) {
	entries := []Entry{
		{Txn: 10, Commit: true, Options: walOps(txn.Op{Kind: txn.OpSet, Key: "a", Value: []byte("v1")})},
		{Txn: 11, Commit: true, Options: walOps(txn.Op{Kind: txn.OpAdd, Key: "n", Delta: 5})},
		{Txn: 12, Commit: false, Options: walOps(txn.Op{Kind: txn.OpAdd, Key: "n", Delta: 100})},
		{Txn: 13, Commit: true, Options: walOps(txn.Op{Kind: txn.OpAdd, Key: "n", Delta: -2})},
		// The mid-commit casualty: this decide was being logged when the
		// process died.
		{Txn: 14, Commit: true, Options: walOps(txn.Op{Kind: txn.OpSet, Key: "a", Value: []byte("v2"), ReadVersion: 1})},
	}
	raw := crashFile(t, entries, 5)
	recovered, _, torn := readWAL(bytes.NewReader(raw))
	if !torn || len(recovered) != 4 {
		t.Fatalf("recovered %d entries torn=%v, want 4 torn=true", len(recovered), torn)
	}

	// Replay into records exactly the way Replica.Restore does.
	records := make(map[string]*record)
	decided := make(map[txn.ID]bool)
	for _, e := range recovered {
		decided[e.Txn] = e.Commit
		if !e.Commit {
			continue
		}
		for _, op := range e.Options {
			rc := records[op.Key]
			if rc == nil {
				rc = &record{}
				records[op.Key] = rc
			}
			rc.apply(op)
		}
	}

	if v := records["a"].value(); string(v.Bytes) != "v1" || v.Version != 1 {
		t.Errorf("a = %q v%d, want v1 v1 (torn txn-14 must not apply)", v.Bytes, v.Version)
	}
	if v := records["n"].value(); v.Int != 3 || v.Version != 2 {
		t.Errorf("n = %d v%d, want 3 v2 (aborted txn-12 must not apply)", v.Int, v.Version)
	}
	if len(decided) != 4 {
		t.Errorf("decided map has %d entries, want 4", len(decided))
	}
	if commit, ok := decided[12]; !ok || commit {
		t.Error("aborted txn-12 missing from decided map or marked committed")
	}
	if _, ok := decided[14]; ok {
		t.Error("torn txn-14 leaked into the decided map")
	}
}

// appendFile opens the WAL at path, appends entries and closes it.
func appendFile(t *testing.T, path string, entries ...Entry) {
	t.Helper()
	w, _, _, err := OpenWALFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		w.Append(e)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkLines requires the file at path to hold want lines, each of them
// exactly one Entry.
func checkLines(t *testing.T, path string, want int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != want {
		t.Errorf("file has %d lines, want %d:\n%s", len(lines), want, raw)
	}
	for i, line := range lines {
		dec := json.NewDecoder(strings.NewReader(line))
		var e Entry
		if err := dec.Decode(&e); err != nil || dec.More() {
			t.Errorf("line %d is not exactly one entry (err=%v): %s", i+1, err, line)
		}
	}
}

// TestWALReopenAppendsOnAFreshLine: records appended after a reopen start a
// line of their own, whether the file ended cleanly or in a torn record.
func TestWALReopenAppendsOnAFreshLine(t *testing.T) {
	e := func(id txn.ID) Entry {
		return Entry{Txn: id, Commit: true, Options: walOps(txn.Op{Kind: txn.OpAdd, Key: "n", Delta: 1})}
	}
	t.Run("clean", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "wal.jsonl")
		appendFile(t, path, e(1), e(2))
		appendFile(t, path, e(3))
		checkLines(t, path, 3)
		appendFile(t, path)
		appendFile(t, path, e(4))
		checkLines(t, path, 4)
	})
	t.Run("torn", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "wal.jsonl")
		if err := os.WriteFile(path, crashFile(t, []Entry{e(1), e(2), e(3)}, 10), 0o644); err != nil {
			t.Fatal(err)
		}
		appendFile(t, path, e(4))
		checkLines(t, path, 3)
	})
}

func TestWALClose(t *testing.T) {
	mem := NewWAL(nil)
	if err := mem.Close(); err != nil {
		t.Errorf("memory WAL Close = %v", err)
	}
	w, _, _, err := OpenWALFile(filepath.Join(t.TempDir(), "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("Close = %v", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	if err := w.Sync(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Sync after Close = %v, want os.ErrClosed", err)
	}
}
