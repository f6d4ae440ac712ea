package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a call into a layer, recorded from the
// benchmark's side of the boundary. Spans of one transaction share txn.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Txn    uint64 `json:"txn"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	base time.Time

	mu    sync.Mutex
	next  uint64
	spans []span
	open  map[uint64]int // span id -> index in spans
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), open: make(map[uint64]int)}
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, txn uint64) uint64 {
	now := int64(time.Since(r.base))
	r.mu.Lock()
	r.next++
	id := r.next
	r.open[id] = len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Txn: txn, Start: now})
	r.mu.Unlock()
	return id
}

// end closes the span.
func (r *recorder) end(id uint64) {
	now := int64(time.Since(r.base))
	r.mu.Lock()
	if i, ok := r.open[id]; ok {
		r.spans[i].End = now
		delete(r.open, id)
	}
	r.mu.Unlock()
}

// closed returns every finished span, dropping any still open.
func (r *recorder) closed() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("benchmark: span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("benchmark: write span: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("benchmark: flush spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("benchmark: close span file: %w", err)
	}
	return nil
}

// interval is a half-open stretch of time.
type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by ivs, counting overlaps once.
func unionLen(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi - cur.lo
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]interval)
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			children[p.ID] = append(children[p.ID], interval{lo, hi})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - unionLen(children[s.ID])
	}
	return self
}
