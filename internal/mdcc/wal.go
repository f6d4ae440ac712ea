package mdcc

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"planet/internal/jsonenc"
	"planet/internal/txn"
)

// Entry is one durable log record: a decided transaction and its options.
// A WAL sink stores each entry as one JSON line, byte-identical to what
// json.Encoder writes for it (appendEntryLine writes it without reflection;
// readWAL reads it back with encoding/json).
// TraceSpan and OptionSpan persist the causal trace context for traced
// transactions (zero otherwise): TraceSpan is the coordinator's root span
// the decide carried, OptionSpan this replica's option-RPC span
// (obs.LegSpanID of the root), set when the replica accepted the
// transaction on the fast path. A post-crash replay re-links the replayed
// decision to OptionSpan, keeping the trace tree stitched across a
// crash-restart cycle.
type Entry struct {
	Txn        txn.ID    `json:"txn"`
	Commit     bool      `json:"commit"`
	Options    []txn.Op  `json:"options"`
	At         time.Time `json:"at"`
	TraceSpan  uint64    `json:"trace_span,omitempty"`
	OptionSpan uint64    `json:"option_span,omitempty"`
	// Lease, when non-nil, makes this a lease-transition record instead of
	// a decision: the replica granted or won a keyspace lease. Replay
	// rebuilds the lease view from these so a restarted master knows the
	// last epoch it held — and learns it was deposed when peers report a
	// higher one. Pre-lease WALs simply never carry the field.
	Lease *LeaseRecord `json:"lease,omitempty"`
}

// LeaseRecord is the durable form of one lease transition (see Entry.Lease).
// Held marks transitions where this replica itself won the lease, as
// opposed to granting it to a peer.
type LeaseRecord struct {
	Keyspace string `json:"keyspace"`
	Epoch    uint64 `json:"epoch"`
	Holder   string `json:"holder"`
	Held     bool   `json:"held,omitempty"`
}

// WAL is the replica's write-ahead log of decisions. A WAL opened on a file
// (OpenWALFile) keeps no copy of its entries, so a node's memory does not
// grow with the decisions it applies: Replay and Commits read the file back.
// Any other WAL retains its entries in memory (for replay and tests) and,
// when constructed with a sink, additionally streams them as JSON lines.
type WAL struct {
	mu      sync.Mutex
	entries []Entry  // the retained copy; never filled for a file WAL
	file    *os.File // the sink of a file WAL, read back by Replay
	sink    io.Writer
	line    []byte // the sink line being encoded, reused under mu
	err     error
	closed  bool
}

// maxKeptLine bounds the line buffer a WAL keeps between appends; an entry
// with a larger value encodes into a buffer of its own.
const maxKeptLine = 64 << 10

// NewWAL returns a WAL. sink may be nil for memory-only logging.
func NewWAL(sink io.Writer) *WAL {
	return &WAL{sink: sink}
}

// Append records one entry, writing its line to the sink in one Write.
func (w *WAL) Append(e Entry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.file == nil {
		w.entries = append(w.entries, e)
	}
	if w.sink == nil || w.err != nil {
		return
	}
	line, err := appendEntryLine(w.line[:0], &e)
	if err == nil {
		_, err = w.sink.Write(line)
	}
	w.err = err
	if cap(line) <= maxKeptLine {
		w.line = line
	}
}

// appendEntryLine appends e's sink line: exactly what json.Encoder writes
// for e, newline included. An entry encoding/json refuses (a time RFC 3339
// cannot express) fails with encoding/json's own error.
func appendEntryLine(b []byte, e *Entry) ([]byte, error) {
	b = strconv.AppendUint(append(b, `{"txn":`...), uint64(e.Txn), 10)
	b = strconv.AppendBool(append(b, `,"commit":`...), e.Commit)
	b = append(b, `,"options":`...)
	if e.Options == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range e.Options {
			o := &e.Options[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(append(b, `{"Kind":`...), uint64(o.Kind), 10)
			b = jsonenc.String(append(b, `,"Key":`...), o.Key)
			b = jsonenc.Bytes(append(b, `,"Value":`...), o.Value)
			b = strconv.AppendInt(append(b, `,"Delta":`...), o.Delta, 10)
			b = strconv.AppendInt(append(b, `,"ReadVersion":`...), o.ReadVersion, 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b, err := jsonenc.Time(append(b, `,"at":`...), e.At)
	if err != nil {
		ref := *e // a copy, so e itself never escapes to encoding/json
		_, err = json.Marshal(&ref)
		return b, err
	}
	if e.TraceSpan != 0 {
		b = strconv.AppendUint(append(b, `,"trace_span":`...), e.TraceSpan, 10)
	}
	if e.OptionSpan != 0 {
		b = strconv.AppendUint(append(b, `,"option_span":`...), e.OptionSpan, 10)
	}
	if l := e.Lease; l != nil {
		b = jsonenc.String(append(b, `,"lease":{"keyspace":`...), l.Keyspace)
		b = strconv.AppendUint(append(b, `,"epoch":`...), l.Epoch, 10)
		b = jsonenc.String(append(b, `,"holder":`...), l.Holder)
		if l.Held {
			b = append(b, `,"held":true`...)
		}
		b = append(b, '}')
	}
	return append(b, '}', '\n'), nil
}

// Err reports the first sink write error, if any.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Sync flushes the sink to stable storage when it supports it (an *os.File
// does). Graceful shutdown calls it so the final decisions survive not just
// a process kill but a machine crash.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if s, ok := w.sink.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// Close syncs the sink, then closes it when it is closable (an *os.File
// is). A memory-only WAL has nothing to close, and a second Close is a
// no-op. Appends after Close record an error (see Err).
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	c, ok := w.sink.(io.Closer)
	if !ok || w.closed {
		return nil
	}
	w.closed = true
	err := w.syncLocked()
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	return err
}

// OpenWALFile opens (creating if needed) a durable WAL at path, counts the
// decodable prefix of any existing log, truncates away a torn tail so new
// appends extend a clean stream, and returns a WAL ready for both Replay and
// Append. It reports how many entries were recovered and whether the file
// ended in a torn record.
func OpenWALFile(path string) (w *WAL, recovered int, torn bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, false, fmt.Errorf("mdcc: open wal: %w", err)
	}
	entries, good, torn := readWAL(f)
	// Cut the file back to the end of its last whole record, then end that
	// record's line, so the next append starts a line of its own.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, 0, false, fmt.Errorf("mdcc: truncate wal: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, false, fmt.Errorf("mdcc: seek wal: %w", err)
	}
	if good > 0 {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, 0, false, fmt.Errorf("mdcc: end wal line: %w", err)
		}
	}
	w = NewWAL(f)
	w.file = f
	return w, len(entries), torn, nil
}

// snapshot returns the entries appended so far: a copy of the retained
// ones, or, for a file WAL, the file's records up to the append offset,
// read without moving it.
func (w *WAL) snapshot() ([]Entry, error) {
	w.mu.Lock()
	if w.file == nil {
		defer w.mu.Unlock()
		return append([]Entry(nil), w.entries...), nil
	}
	end, err := w.file.Seek(0, io.SeekCurrent)
	w.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("mdcc: wal replay: %w", err)
	}
	entries, _, _ := readWAL(io.NewSectionReader(w.file, 0, end))
	return entries, nil
}

// Replay invokes fn on every entry in append order. fn returning an error
// stops the replay.
func (w *WAL) Replay(fn func(Entry) error) error {
	entries, err := w.snapshot()
	if err != nil {
		return err
	}
	for i, e := range entries {
		if err := fn(e); err != nil {
			return fmt.Errorf("mdcc: wal replay stopped at entry %d: %w", i, err)
		}
	}
	return nil
}

// Commits returns the committed entries in order (tests, recovery checks);
// none when a file WAL cannot be read back.
func (w *WAL) Commits() []Entry {
	entries, _ := w.snapshot()
	out := entries[:0]
	for _, e := range entries {
		if e.Commit {
			out = append(out, e)
		}
	}
	return out
}

// readWAL decodes the JSON-line entries a WAL sink wrote to r, tolerating a
// torn tail: a process that crashed mid-append leaves a final record cut
// short, and recovery must use the complete prefix rather than fail. It
// returns the decodable prefix, the byte offset where that prefix ends, and
// whether the stream ended in a torn (or otherwise malformed) record.
//
// A torn tail is indistinguishable from mid-file corruption in a JSON-line
// stream, so any decode failure ends the scan; everything before it is
// trusted.
func readWAL(r io.Reader) (entries []Entry, good int64, torn bool) {
	dec := json.NewDecoder(r)
	for {
		var e Entry
		if err := dec.Decode(&e); err == io.EOF {
			return entries, good, false
		} else if err != nil {
			return entries, good, true
		}
		entries = append(entries, e)
		good = dec.InputOffset()
	}
}
