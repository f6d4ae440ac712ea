package obs

import (
	"math"
	"time"

	"planet/internal/txn"
)

// SpanStores shards span retention and attribution by home region, one
// SpanStore per region. Every span of a transaction lands in its home
// region's shard (the handle and coordinator record there, and remote
// replica/master spans flow back to that coordinator), so a region's shard
// holds its own transactions only. Readers get a merged view:
// Spans concatenates shards in the fixed region order and the attribution
// set pools the shards' statistics with an exact mean/variance merge.
//
// All methods are safe on a nil receiver (tracing disabled).
type SpanStores struct {
	order  []string
	stores map[string]*SpanStore
	attrs  *AttributionSet
}

// NewSpanStores builds one store per region (cfg.Capacity transactions
// retained per shard; cfg.Attr is ignored — each shard aggregates into its
// own Attribution).
func NewSpanStores(cfg SpanStoreConfig, regions []string) *SpanStores {
	f := &SpanStores{stores: make(map[string]*SpanStore, len(regions))}
	for _, r := range regions {
		if _, ok := f.stores[r]; ok {
			continue
		}
		f.order = append(f.order, r)
		f.stores[r] = NewSpanStore(SpanStoreConfig{Capacity: cfg.Capacity})
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
		out = append(out, f.stores[r].Spans(id)...)
	}
	return out
}

// TxnCount reports how many transactions currently have retained spans
// across all shards.
func (f *SpanStores) TxnCount() int {
	if f == nil {
		return 0
	}
	n := 0
	for _, r := range f.order {
		n += f.stores[r].TxnCount()
	}
	return n
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

// MergeAttributions builds a set over the given engines (reporting helper).
func MergeAttributions(attrs ...*Attribution) *AttributionSet {
	return &AttributionSet{attrs: attrs}
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
