package mdcc

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"planet/internal/txn"
)

// FuzzReadWAL checks that the WAL decoder never panics on arbitrary input,
// that the prefix it keeps — the bytes OpenWALFile truncates a torn log to —
// decodes again to the same entries with no tear, that encode→decode
// round-trips whatever it accepts, and that the WAL encodes every accepted
// entry exactly as json.Encoder does.
func FuzzReadWAL(f *testing.F) {
	var seed bytes.Buffer
	w := NewWAL(&seed)
	w.Append(Entry{Txn: 1, Commit: true, Options: []txn.Op{
		{Kind: txn.OpSet, Key: "a", Value: []byte("x"), ReadVersion: 2},
	}, At: time.Unix(10, 0).UTC()})
	w.Append(Entry{Txn: 2, Commit: false, Options: []txn.Op{
		{Kind: txn.OpAdd, Key: "b", Delta: -3},
	}})
	f.Add(seed.Bytes())
	f.Add([]byte(`{"txn":7,"commit":true}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte{})
	golden, err := os.ReadFile("testdata/wal_golden.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"txn":3,"options":[{"Kind":0,"Key":"\u00e9\ud800","Value":"","Delta":-1}],"at":"2024-02-29T23:59:59.5-23:59","lease":{"keyspace":"<&>","epoch":9,"held":false}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, good, _ := readWAL(bytes.NewReader(data))
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good prefix ends at byte %d of %d", good, len(data))
		}
		same := func(what string, back []Entry, torn bool) {
			t.Helper()
			if torn {
				t.Fatalf("%s decoded as torn", what)
			}
			if len(back) != len(entries) {
				t.Fatalf("%s: %d -> %d entries", what, len(entries), len(back))
			}
			for i := range entries {
				if back[i].Txn != entries[i].Txn || back[i].Commit != entries[i].Commit {
					t.Fatalf("%s: entry %d changed: %+v vs %+v", what, i, entries[i], back[i])
				}
			}
		}
		kept, _, torn := readWAL(bytes.NewReader(data[:good]))
		same("kept prefix", kept, torn)
		// Whatever decoded must re-encode and decode to the same entries.
		var buf bytes.Buffer
		rt := NewWAL(&buf)
		for _, e := range entries {
			rt.Append(e)
		}
		back, _, torn := readWAL(&buf)
		same("round trip", back, torn)
		for i := range entries {
			line, err := appendEntryLine(nil, &entries[i])
			ref, rerr := json.Marshal(entries[i])
			if (err == nil) != (rerr == nil) || err == nil && !bytes.Equal(line, append(ref, '\n')) {
				t.Fatalf("entry %d encodes as %s (%v), encoding/json %s (%v)", i, line, err, ref, rerr)
			}
		}
	})
}

// FuzzRecordValidateApply drives a record through arbitrary op sequences
// and asserts the structural invariants: versions only grow, accepted
// bounded adds never let the pessimistic sum escape the bounds, and
// validate/apply never panic.
func FuzzRecordValidateApply(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, int64(5))
	f.Add([]byte{255, 0, 128}, int64(-5))

	f.Fuzz(func(t *testing.T, script []byte, seedVal int64) {
		r := &record{ival: seedVal % 50, isInt: true, bounded: true, lo: -100, hi: 100}
		if r.ival < r.lo || r.ival > r.hi {
			r.ival = 0
		}
		now := time.Now()
		prevVersion := r.version
		for i, bb := range script {
			id := txn.ID(i + 1)
			switch bb % 4 {
			case 0: // propose an add
				op := txn.Op{Kind: txn.OpAdd, Key: "k", Delta: int64(int8(bb)) / 4}
				if r.validate(op, 0, id) == ReasonNone {
					r.addPending(id, op, 0, now)
				}
			case 1: // propose a set
				op := txn.Op{Kind: txn.OpSet, Key: "k", Value: []byte{bb}, ReadVersion: r.version}
				if r.validate(op, 0, id) == ReasonNone {
					r.addPending(id, op, 0, now)
				}
			case 2: // decide-commit the oldest pending
				if len(r.pending) > 0 {
					p := r.pending[0]
					r.removePending(p.txn)
					r.apply(p.op)
				}
			case 3: // decide-abort the oldest pending
				if len(r.pending) > 0 {
					r.removePending(r.pending[0].txn)
				}
			}
			// The demarcation guarantee: under ANY commit/abort
			// interleaving of accepted options, the committed value
			// stays within bounds.
			if r.isInt && (r.ival < r.lo || r.ival > r.hi) {
				t.Fatalf("committed value %d escaped [%d,%d]", r.ival, r.lo, r.hi)
			}
			if r.version < prevVersion {
				t.Fatalf("version regressed %d -> %d", prevVersion, r.version)
			}
			prevVersion = r.version
		}
	})
}

// FuzzRejectReasonStrings pins the enum's string table (no panics, no
// empty names) across arbitrary values.
func FuzzRejectReasonStrings(f *testing.F) {
	f.Add(uint8(0))
	f.Add(uint8(200))
	f.Fuzz(func(t *testing.T, v uint8) {
		s := RejectReason(v).String()
		if s == "" || strings.Contains(s, "%!") {
			t.Fatalf("bad reason string %q", s)
		}
	})
}
