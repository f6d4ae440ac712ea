package mdcc

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

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

// walGoldenEntries covers every shape the WAL line encoder must reproduce:
// leases (held and granted), nil and empty values, keys that need escaping
// or are not UTF-8, zoned, UTC and zero times, and the omitempty fields.
func walGoldenEntries() []Entry {
	zone := time.FixedZone("", -(7*3600 + 30*60))
	return []Entry{
		{Txn: 1, Commit: true, Options: []txn.Op{
			{Kind: txn.OpSet, Key: "a", Value: []byte("x"), ReadVersion: 2},
			{Kind: txn.OpAdd, Key: "b", Delta: -3},
		}, At: time.Unix(10, 0).UTC(), TraceSpan: 7, OptionSpan: 9},
		{Txn: 2, Commit: false, Options: []txn.Op{}, At: time.Date(2031, 4, 5, 6, 7, 8, 123456789, zone)},
		{Txn: 3, Commit: true, Options: []txn.Op{
			{Kind: txn.OpSet, Key: "nil-value"},
			{Kind: txn.OpSet, Key: "empty-value", Value: []byte{}},
			{Kind: txn.OpSet, Key: "bin", Value: []byte{0, 0xff, 0xfe, '\n', '"'}, ReadVersion: -1},
		}},
		{Txn: 4, Commit: true, Options: []txn.Op{
			{Kind: txn.OpAdd, Key: "<html> & \"quotes\" \\ \b\f\n\r\t\x01\x1f\x7f", Delta: 1 << 62},
			{Kind: txn.OpAdd, Key: "bad utf8 \xff\xc3( and \xe2\x80\xa8\xe2\x80\xa9 é 世界", Delta: -1 << 63},
		}, At: time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC)},
		{Txn: 5, Lease: &LeaseRecord{Keyspace: "us-west", Epoch: 3, Holder: "eu-west"}, At: time.Unix(1700000000, 500).In(time.FixedZone("", 3600))},
		{Txn: 6, Commit: true, Lease: &LeaseRecord{Keyspace: "k<s>", Epoch: 1<<64 - 1, Holder: "", Held: true}},
		{Txn: 1<<64 - 1, Options: nil, At: time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), OptionSpan: 1<<64 - 1},
	}
}

// TestWALLinesMatchEncodingJSON holds the WAL's line encoder to
// json.Encoder byte for byte. testdata/wal_golden.jsonl was written by the
// json.Encoder-backed WAL before the hand-written encoder replaced it: the
// same entries must encode to the same file, and the file must replay.
func TestWALLinesMatchEncodingJSON(t *testing.T) {
	golden, err := os.ReadFile("testdata/wal_golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var buf, ref bytes.Buffer
	w := NewWAL(&buf)
	enc := json.NewEncoder(&ref)
	want := walGoldenEntries()
	for _, e := range want {
		w.Append(e)
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
		t.Fatalf("WAL lines differ from json.Encoder:\n got %s\nwant %s", buf.Bytes(), ref.Bytes())
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("WAL lines differ from the recorded file:\n got %s\nwant %s", buf.Bytes(), golden)
	}

	// The recorded file replays to the entries that wrote it, and each
	// replayed entry encodes back to its own line. A key that is not UTF-8
	// is the exception: encoding/json stored it with U+FFFD in place of each
	// bad byte, and it replays that way.
	entries, _, torn := readWAL(bytes.NewReader(golden))
	if torn || len(entries) != len(want) {
		t.Fatalf("replay: %d entries of %d, torn=%v", len(entries), len(want), torn)
	}
	lines := bytes.SplitAfter(golden, []byte("\n"))
	for i, e := range entries {
		lossless := true
		for _, o := range want[i].Options {
			lossless = lossless && utf8.ValidString(o.Key)
		}
		line, err := appendEntryLine(nil, &entries[i])
		ref, _ := json.Marshal(entries[i])
		if err != nil || !bytes.Equal(line, append(ref, '\n')) || lossless && !bytes.Equal(line, lines[i]) {
			t.Errorf("entry %d re-encodes as %s (%v), want %s", i, line, err, lines[i])
		}
		if !e.At.Equal(want[i].At) {
			t.Errorf("entry %d: at %v, want %v", i, e.At, want[i].At)
		}
		e.At, want[i].At = time.Time{}, time.Time{}
		if lossless && !reflect.DeepEqual(e, want[i]) {
			t.Errorf("entry %d replayed as %+v, want %+v", i, e, want[i])
		}
	}

	// An instant RFC 3339 cannot express is refused with encoding/json's
	// error, and nothing reaches the sink.
	for _, at := range []time.Time{time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), time.Unix(0, 0).In(time.FixedZone("", 24*3600))} {
		var sink bytes.Buffer
		w := NewWAL(&sink)
		w.Append(Entry{Txn: 1, At: at})
		_, jerr := json.Marshal(Entry{Txn: 1, At: at})
		if jerr == nil || w.Err() == nil || w.Err().Error() != jerr.Error() || sink.Len() != 0 {
			t.Errorf("at %v: WAL error %v with %d bytes written, encoding/json %v", at, w.Err(), sink.Len(), jerr)
		}
	}
}

// BenchmarkWALAppend is the WAL's rung of the allocation ladder: one
// fast-path decision (a single add) appended to a file-backed WAL, one
// line and one write each.
func BenchmarkWALAppend(b *testing.B) {
	w, _, _, err := OpenWALFile(filepath.Join(b.TempDir(), "wal.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	e := Entry{Txn: 1<<56 + 1, Commit: true, Options: []txn.Op{{Kind: txn.OpAdd, Key: "key-000417", Delta: 1}},
		At: time.Date(2026, 5, 1, 12, 0, 0, 123456789, time.UTC)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Txn++
		w.Append(e)
	}
	if err := w.Err(); err != nil {
		b.Fatal(err)
	}
}
