package planet

import (
	"fmt"
	"sort"

	"planet/internal/txn"
)

// write is a buffered write in a transaction.
type write struct {
	kind  txn.OpKind
	value []byte
	delta int64
}

// Txn is a transaction under construction: reads go to the local replica
// and record the observed version; writes are buffered until Commit.
// A Txn is not safe for concurrent use and must be committed at most once.
type Txn struct {
	session   *Session
	reads     map[string]int64 // key -> version observed
	writes    map[string]write
	committed bool
}

// Read returns the committed bytes of key from the local replica and
// records the observed version for optimistic validation.
func (t *Txn) Read(key string) ([]byte, error) {
	b, ver, err := t.session.ReadBytes(key)
	if err != nil {
		return nil, err
	}
	t.reads[key] = ver
	return b, nil
}

// ReadInt is Read for integer records.
func (t *Txn) ReadInt(key string) (int64, error) {
	v, ver, err := t.session.ReadInt(key)
	if err != nil {
		return 0, err
	}
	t.reads[key] = ver
	return v, nil
}

// Set buffers a physical write of key. The commit validates that the
// record version is unchanged since this transaction read it (or since Set
// was called, for blind writes).
func (t *Txn) Set(key string, value []byte) {
	if _, read := t.reads[key]; !read {
		// Blind write: capture the current version now so validation
		// spans at least the Set-to-commit window.
		if _, ver, err := t.session.ReadBytes(key); err == nil {
			t.reads[key] = ver
		} else {
			t.reads[key] = 0 // writing a new key
		}
	}
	w := write{kind: txn.OpSet, value: append([]byte(nil), value...)}
	if prev := t.writes[key]; prev.kind == txn.OpAdd && prev.delta != 0 {
		// Keep the delta so Commit can reject the Set/Add mix loudly
		// instead of silently discarding the earlier Add.
		w.delta = prev.delta
	}
	t.writes[key] = w
}

// Add buffers a commutative integer delta on key; concurrent Adds commit
// together as long as the record's integrity bounds hold. Multiple Adds in
// one transaction accumulate.
func (t *Txn) Add(key string, delta int64) {
	w := t.writes[key]
	if w.kind == txn.OpSet && (w.value != nil || w.delta != 0) {
		// Set followed by Add is flagged at Commit; record the Add so
		// the conflict is visible there.
		t.writes[key] = write{kind: txn.OpAdd, delta: delta, value: w.value}
		return
	}
	w.kind = txn.OpAdd
	w.delta += delta
	t.writes[key] = w
}

// Keys returns the transaction's write set in sorted order.
func (t *Txn) Keys() []string {
	keys := make([]string, 0, len(t.writes))
	for k := range t.writes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ops converts the buffered writes to protocol options.
func (t *Txn) ops() ([]txn.Op, error) {
	ops := make([]txn.Op, 0, len(t.writes))
	for _, key := range t.Keys() {
		w := t.writes[key]
		switch w.kind {
		case txn.OpSet:
			if w.delta != 0 {
				return nil, fmt.Errorf("planet: key %q mixes Set and Add in one transaction", key)
			}
			ops = append(ops, txn.Op{Kind: txn.OpSet, Key: key, Value: w.value, ReadVersion: t.reads[key]})
		case txn.OpAdd:
			if w.value != nil {
				return nil, fmt.Errorf("planet: key %q mixes Set and Add in one transaction", key)
			}
			ops = append(ops, txn.Op{Kind: txn.OpAdd, Key: key, Delta: w.delta})
		}
	}
	return ops, nil
}
