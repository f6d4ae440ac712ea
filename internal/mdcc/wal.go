package mdcc

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"planet/internal/txn"
)

// Entry is one durable log record: a decided transaction and its options.
// TraceSpan and OptionSpan persist the causal trace context for traced
// transactions (zero otherwise): TraceSpan is the coordinator's root span
// the decide carried, OptionSpan this replica's option-RPC span. A
// post-crash replay re-links the replayed decision to OptionSpan, keeping
// the trace tree stitched across a crash-restart cycle.
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

// WAL is the replica's write-ahead log of decisions. It always retains
// entries in memory (for replay and tests) and, when constructed with a
// sink, additionally streams them as JSON lines.
type WAL struct {
	mu      sync.Mutex
	entries []Entry
	sink    io.Writer
	enc     *json.Encoder
	err     error
	closed  bool
}

// NewWAL returns a WAL. sink may be nil for memory-only logging.
func NewWAL(sink io.Writer) *WAL {
	w := &WAL{sink: sink}
	if sink != nil {
		w.enc = json.NewEncoder(sink)
	}
	return w
}

// Append records one entry.
func (w *WAL) Append(e Entry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.entries = append(w.entries, e)
	if w.enc != nil && w.err == nil {
		w.err = w.enc.Encode(e)
	}
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

// OpenWALFile opens (creating if needed) a durable WAL at path, recovers the
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
	w.entries = entries
	return w, len(entries), torn, nil
}

// Replay invokes fn on every entry in append order. fn returning an error
// stops the replay.
func (w *WAL) Replay(fn func(Entry) error) error {
	w.mu.Lock()
	snapshot := append([]Entry(nil), w.entries...)
	w.mu.Unlock()
	for i, e := range snapshot {
		if err := fn(e); err != nil {
			return fmt.Errorf("mdcc: wal replay stopped at entry %d: %w", i, err)
		}
	}
	return nil
}

// Commits returns the committed entries in order (tests, recovery checks).
func (w *WAL) Commits() []Entry {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []Entry
	for _, e := range w.entries {
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
