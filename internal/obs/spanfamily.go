package obs

import (
	"math"
	"sort"
	"sync"
	"time"

	"planet/internal/txn"
)

// SpanStores is a deployment's one trace store: one SpanStore per home
// region plus one deployment-wide FaultLog. Every span and lifecycle event
// of a transaction lands in its home region's shard (the handle and
// coordinator record there, and remote replica/master spans flow back to
// that coordinator), so a region's shard holds its own transactions only.
// Readers get a merged view: Spans concatenates shards in the fixed region
// order, Trace and Recent attach the faults each transaction overlapped,
// and the attribution set pools the shards' statistics with an exact
// mean/variance merge.
//
// All methods are safe on a nil receiver (tracing disabled).
type SpanStores struct {
	order  []string
	stores map[string]*SpanStore
	attrs  *AttributionSet
	faults *FaultLog
}

// NewSpanStores builds one store per region (cfg.Capacity transactions
// retained per shard, and as many faults in the fault log).
func NewSpanStores(cfg SpanStoreConfig, regions []string) *SpanStores {
	if cfg.Capacity <= 0 {
		cfg.Capacity = defaultCapacity
	}
	f := &SpanStores{
		stores: make(map[string]*SpanStore, len(regions)),
		faults: &FaultLog{cap: cfg.Capacity},
	}
	for _, r := range regions {
		if _, ok := f.stores[r]; ok {
			continue
		}
		f.order = append(f.order, r)
		st := NewSpanStore(SpanStoreConfig{Capacity: cfg.Capacity, Log: cfg.Log})
		st.faults = f.faults
		f.stores[r] = st
	}
	attrs := make([]*Attribution, len(f.order))
	for i, r := range f.order {
		attrs[i] = f.stores[r].Attribution()
	}
	f.attrs = &AttributionSet{attrs: attrs}
	return f
}

// For returns the region's shard (nil — a harmless no-op store — for
// unknown regions and on a nil receiver).
func (f *SpanStores) For(region string) *SpanStore {
	if f == nil {
		return nil
	}
	return f.stores[region]
}

// Spans returns id's recorded spans, shards visited in region order. A
// transaction's spans live in one shard, but the concatenation keeps the
// read correct either way.
func (f *SpanStores) Spans(id txn.ID) []Span {
	if f == nil {
		return nil
	}
	var out []Span
	for _, r := range f.order {
		out = f.stores[r].appendSpans(out, id)
	}
	return out
}

// Trace returns id's lifecycle from the shard it began in, with the faults
// it overlapped attached, and whether one was found.
func (f *SpanStores) Trace(id txn.ID) (Trace, bool) {
	if f == nil {
		return Trace{}, false
	}
	for _, r := range f.order {
		if tr, ok := f.stores[r].trace(id); ok {
			return f.faults.attach(tr), true
		}
	}
	return Trace{}, false
}

// TraceFilter selects finished traces for Recent.
type TraceFilter struct {
	// AbortedOnly keeps only traces with outcome "aborted".
	AbortedOnly bool
	// SlowOnly keeps only traces marked slow.
	SlowOnly bool
	// Limit caps the result length; <= 0 means no cap.
	Limit int
}

// Recent returns the finished traces matching f across every shard, newest
// decision first, ties broken by ascending txn id, with faults attached.
func (f *SpanStores) Recent(filter TraceFilter) []Trace {
	if f == nil {
		return nil
	}
	var out []Trace
	for _, r := range f.order {
		out = f.stores[r].finished(out, filter)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].End.Equal(out[j].End) {
			return out[i].End.After(out[j].End)
		}
		return out[i].ID < out[j].ID
	})
	if filter.Limit > 0 && len(out) > filter.Limit {
		out = out[:filter.Limit]
	}
	for i := range out {
		out[i] = f.faults.attach(out[i])
	}
	return out
}

// Faults returns the deployment's fault log (nil on a nil receiver).
func (f *SpanStores) Faults() *FaultLog {
	if f == nil {
		return nil
	}
	return f.faults
}

// FaultLog is a deployment's bounded log of faults — chaos injections and
// heals, transport peer transitions, lease moves — appended once per fault,
// oldest overwritten when full. Trace reads attach each fault whose instant
// falls inside the transaction's [start, end] as an EvFault event. Safe on
// a nil receiver (no-op).
type FaultLog struct {
	mu     sync.Mutex
	cap    int
	events []Event // oldest first
}

// Record logs one fault observed at at (stamped on the cluster clock, like
// the traces it lands in); region may be empty.
func (l *FaultLog) Record(at time.Time, region, note string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.events = append(l.events, Event{At: at, Kind: EvFault, Region: region, Note: note})
	if len(l.events) > l.cap {
		l.events = l.events[1:]
	}
	l.mu.Unlock()
}

// attach returns tr with the faults inside [tr.Start, tr.End] — no upper
// bound while it is in flight — added to its events, in time order, a fault
// after any event of the same instant. tr's events must be the caller's own
// copy: the faults are appended to them.
func (l *FaultLog) attach(tr Trace) Trace {
	if l == nil {
		return tr
	}
	n := len(tr.Events)
	l.mu.Lock()
	for _, e := range l.events {
		if !e.At.Before(tr.Start) && (!tr.Done || !e.At.After(tr.End)) {
			tr.Events = append(tr.Events, e)
		}
	}
	l.mu.Unlock()
	if len(tr.Events) > n {
		evs := tr.Events
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].At.Before(evs[j].At) })
	}
	return tr
}

// Attribution returns the merged per-stage statistics view over every
// shard's engine.
func (f *SpanStores) Attribution() *AttributionSet {
	if f == nil {
		return nil
	}
	return f.attrs
}

// AttributionSet merges several Attribution engines into one read-only
// view, combining shards in a fixed order: counts, means, variances, and
// min/max merge exactly (Chan's pooled form of Welford), so the pooled
// statistics equal what one global engine would have computed; the EWMAs
// are inherently order-dependent, so they merge count-weighted, which is
// deterministic and tracks the same scale. Safe on a nil receiver.
type AttributionSet struct {
	attrs []*Attribution
}

// merged returns the pooled accumulators.
func (s *AttributionSet) merged() [NumStages]stageAcc {
	var out [NumStages]stageAcc
	for _, a := range s.attrs {
		if a == nil {
			continue
		}
		a.mu.Lock()
		stages := a.stages
		a.mu.Unlock()
		for st := range out {
			out[st] = mergeAcc(out[st], stages[st])
		}
	}
	return out
}

// mergeAcc pools two accumulators.
func mergeAcc(a, b stageAcc) stageAcc {
	if a.count == 0 {
		return b
	}
	if b.count == 0 {
		return a
	}
	n := a.count + b.count
	fa, fb, fn := float64(a.count), float64(b.count), float64(n)
	delta := b.mean - a.mean
	return stageAcc{
		count:  n,
		mean:   a.mean + delta*fb/fn,
		m2:     a.m2 + b.m2 + delta*delta*fa*fb/fn,
		min:    math.Min(a.min, b.min),
		max:    math.Max(a.max, b.max),
		ewma:   (fa*a.ewma + fb*b.ewma) / fn,
		jitter: (fa*a.jitter + fb*b.jitter) / fn,
	}
}

// StageStats implements the predictor's StageFeed over the merged view.
func (s *AttributionSet) StageStats(st Stage) (ewma, jitter time.Duration, n uint64) {
	if s == nil || st >= NumStages {
		return 0, 0, 0
	}
	var acc stageAcc
	for _, a := range s.attrs {
		if a == nil {
			continue
		}
		a.mu.Lock()
		sa := a.stages[st]
		a.mu.Unlock()
		acc = mergeAcc(acc, sa)
	}
	return time.Duration(acc.ewma), time.Duration(acc.jitter), acc.count
}

// Snapshot captures the merged statistics (same report as a single
// engine's Snapshot).
func (s *AttributionSet) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	return snapshotFrom(s.merged())
}
