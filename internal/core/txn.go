package planet

import (
	"fmt"
	"slices"
	"strings"

	"planet/internal/txn"
)

// write is a buffered write in a transaction.
type write struct {
	kind  txn.OpKind
	value []byte
	delta int64
}

// readVersion is one entry of a transaction's read set: the version of key
// the transaction observed.
type readVersion struct {
	key     string
	version int64
}

// keyWrite is one entry of a transaction's write set.
type keyWrite struct {
	key string
	write
}

// Txn is a transaction under construction: reads go to the local replica
// and record the observed version; writes are buffered until Commit.
// A Txn is not safe for concurrent use and must be committed at most once.
//
// A transaction touches a handful of keys, so both sets are slices, not
// maps: the read set is searched linearly, and the write set is kept sorted
// by key, the order its options are submitted in.
type Txn struct {
	session   *Session
	reads     []readVersion
	writes    []keyWrite // sorted by key
	committed bool
}

// Read returns the committed bytes of key from the local replica and
// records the observed version for optimistic validation.
func (t *Txn) Read(key string) ([]byte, error) {
	b, ver, err := t.session.ReadBytes(key)
	if err != nil {
		return nil, err
	}
	t.setRead(key, ver)
	return b, nil
}

// ReadInt is Read for integer records.
func (t *Txn) ReadInt(key string) (int64, error) {
	v, ver, err := t.session.ReadInt(key)
	if err != nil {
		return 0, err
	}
	t.setRead(key, ver)
	return v, nil
}

// readOf returns key's read-set entry, or nil.
func (t *Txn) readOf(key string) *readVersion {
	for i := range t.reads {
		if t.reads[i].key == key {
			return &t.reads[i]
		}
	}
	return nil
}

// setRead records (or, on a repeated read, overwrites) the version of key
// the transaction observed.
func (t *Txn) setRead(key string, version int64) {
	if r := t.readOf(key); r != nil {
		r.version = version
		return
	}
	t.reads = append(t.reads, readVersion{key, version})
}

// writeSlot returns the write-set entry for key, inserting an empty one at
// its sorted position when the key has no buffered write yet.
func (t *Txn) writeSlot(key string) *write {
	i, found := slices.BinarySearchFunc(t.writes, key, func(w keyWrite, key string) int {
		return strings.Compare(w.key, key)
	})
	if !found {
		t.writes = slices.Insert(t.writes, i, keyWrite{key: key})
	}
	return &t.writes[i].write
}

// Set buffers a physical write of key. The commit validates that the
// record version is unchanged since this transaction read it (or since Set
// was called, for blind writes).
func (t *Txn) Set(key string, value []byte) {
	if t.readOf(key) == nil {
		// Blind write: capture the current version now so validation
		// spans at least the Set-to-commit window. A key the replica does
		// not hold is a new key, written against version 0.
		v, _ := t.session.replica.ReadLocal(key)
		t.setRead(key, v.Version)
	}
	w := t.writeSlot(key)
	prev := *w
	*w = write{kind: txn.OpSet, value: append([]byte(nil), value...)}
	if prev.kind == txn.OpAdd && prev.delta != 0 {
		// Keep the delta so Commit can reject the Set/Add mix loudly
		// instead of silently discarding the earlier Add.
		w.delta = prev.delta
	}
}

// Add buffers a commutative integer delta on key; concurrent Adds commit
// together as long as the record's integrity bounds hold. Multiple Adds in
// one transaction accumulate.
func (t *Txn) Add(key string, delta int64) {
	w := t.writeSlot(key)
	if w.kind == txn.OpSet && (w.value != nil || w.delta != 0) {
		// Set followed by Add is flagged at Commit; record the Add so
		// the conflict is visible there.
		*w = write{kind: txn.OpAdd, delta: delta, value: w.value}
		return
	}
	w.kind = txn.OpAdd
	w.delta += delta
}

// Keys returns the transaction's write set in sorted order.
func (t *Txn) Keys() []string {
	keys := make([]string, len(t.writes))
	for i := range t.writes {
		keys[i] = t.writes[i].key
	}
	return keys
}

// ops converts the buffered writes to protocol options, in key order.
func (t *Txn) ops() ([]txn.Op, error) {
	ops := make([]txn.Op, 0, len(t.writes))
	for _, kw := range t.writes {
		key, w := kw.key, kw.write
		switch w.kind {
		case txn.OpSet:
			if w.delta != 0 {
				return nil, fmt.Errorf("planet: key %q mixes Set and Add in one transaction", key)
			}
			// Set recorded a read of every key it wrote.
			ops = append(ops, txn.Op{Kind: txn.OpSet, Key: key, Value: w.value, ReadVersion: t.readOf(key).version})
		case txn.OpAdd:
			if w.value != nil {
				return nil, fmt.Errorf("planet: key %q mixes Set and Add in one transaction", key)
			}
			ops = append(ops, txn.Op{Kind: txn.OpAdd, Key: key, Delta: w.delta})
		}
	}
	return ops, nil
}
