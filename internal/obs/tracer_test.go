package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"planet/internal/txn"
)

// The trace store's lifecycle half, tested through a one-region store.

// testStores builds a one-region store with the given capacity and log.
func testStores(capacity int, log TraceLog) (*SpanStores, *SpanStore) {
	f := NewSpanStores(SpanStoreConfig{Capacity: capacity, Log: log}, []string{"r"})
	return f, f.For("r")
}

var t0 = time.Unix(1000, 0)

// at is t0 plus ms milliseconds.
func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

func TestTracerLifecycle(t *testing.T) {
	f, s := testStores(0, TraceLog{})
	id := txn.ID(7)
	s.Begin(id, at(0))
	s.Record(id, Event{At: at(0), Kind: EvSubmitted})
	s.Record(id, Event{At: at(1), Kind: EvAdmission, Accept: true, Likelihood: 0.9})
	s.Record(id, Event{At: at(2), Kind: EvVote, Key: "k", Region: "us-west", Accept: true, Likelihood: 0.95})

	live, ok := f.Trace(id)
	if !ok || live.Done || len(live.Events) != 3 {
		t.Fatalf("live lookup = %+v, %v", live, ok)
	}
	if got := f.Recent(TraceFilter{}); len(got) != 0 {
		t.Errorf("in-flight trace listed as finished: %+v", got)
	}

	s.Record(id, Event{At: at(3), Kind: EvFinal, Accept: true})
	s.Finish(id, at(3), "committed", false)
	s.Record(id, Event{At: at(4), Kind: EvApology}) // after Finish: ignored

	done, ok := f.Trace(id)
	if !ok || !done.Done || done.Outcome != "committed" || !done.End.Equal(at(3)) {
		t.Fatalf("completed lookup = %+v, %v", done, ok)
	}
	if len(done.Events) != 4 {
		t.Fatalf("got %d events, want 4", len(done.Events))
	}
	if done.Events[0].Kind != EvSubmitted || done.Events[3].Kind != EvFinal {
		t.Errorf("event order: %v .. %v", done.Events[0].Kind, done.Events[3].Kind)
	}
	// Lifecycle events never reach the attribution engine.
	if n := len(f.Attribution().Snapshot().Stages); n != 0 {
		t.Errorf("events fed %d attribution stages", n)
	}
	if _, ok := f.Trace(txn.ID(8)); ok {
		t.Error("unknown id resolved")
	}
}

func TestTracerRingEviction(t *testing.T) {
	f, s := testStores(4, TraceLog{})
	var ids []txn.ID
	for i := 1; i <= 10; i++ {
		id := txn.ID(i)
		ids = append(ids, id)
		s.Begin(id, at(i))
		s.Record(id, Event{At: at(i), Kind: EvSubmitted})
		s.Finish(id, at(i), "committed", false)
	}
	recent := f.Recent(TraceFilter{})
	if len(recent) != 4 {
		t.Fatalf("store holds %d traces, want 4", len(recent))
	}
	// Newest first: the last four finished ids in reverse order.
	for i := 0; i < 4; i++ {
		if want := ids[len(ids)-1-i]; recent[i].ID != want {
			t.Errorf("recent[%d] = %s, want %s", i, recent[i].ID, want)
		}
	}
	if _, ok := f.Trace(ids[0]); ok {
		t.Error("evicted trace still resolvable")
	}

	// The fault log keeps the newest Capacity faults.
	s.Begin(99, at(0))
	for i := 0; i < 6; i++ {
		f.Faults().Record(at(100+i), "", fmt.Sprint(i))
	}
	tr, _ := f.Trace(99)
	var notes []string
	for _, e := range tr.Events {
		notes = append(notes, e.Note)
	}
	if fmt.Sprint(notes) != "[2 3 4 5]" {
		t.Errorf("fault log kept %v, want the last four", notes)
	}
}

// TestTraceRecentAcrossShards: the listing merges every shard newest
// decision first, whatever the submission order, and breaks ties by id.
func TestTraceRecentAcrossShards(t *testing.T) {
	f := NewSpanStores(SpanStoreConfig{}, []string{"a", "b"})
	finish := func(shard string, id txn.ID, start, end int) {
		s := f.For(shard)
		s.Begin(id, at(start))
		s.Finish(id, at(end), "committed", false)
	}
	finish("a", 1, 0, 50)
	finish("b", 2, 10, 20)
	finish("b", 4, 5, 50)
	finish("a", 3, 30, 40)
	var got []txn.ID
	for _, tr := range f.Recent(TraceFilter{}) {
		got = append(got, tr.ID)
	}
	if want := []txn.ID{1, 4, 3, 2}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("order %v, want %v", got, want)
	}
}

func TestTracerFilters(t *testing.T) {
	f, s := testStores(16, TraceLog{SlowThreshold: time.Nanosecond})
	for i := 1; i <= 6; i++ {
		id := txn.ID(i)
		s.Begin(id, at(i))
		outcome := "committed"
		if i%2 == 0 {
			outcome = "aborted"
		}
		s.Finish(id, at(i+1), outcome, false)
	}
	aborted := f.Recent(TraceFilter{AbortedOnly: true})
	if len(aborted) != 3 {
		t.Errorf("aborted filter got %d, want 3", len(aborted))
	}
	for _, a := range aborted {
		if a.Outcome != "aborted" {
			t.Errorf("filter leaked outcome %q", a.Outcome)
		}
	}
	if got := f.Recent(TraceFilter{Limit: 2}); len(got) != 2 {
		t.Errorf("limit 2 got %d", len(got))
	}
	// Every trace exceeds the 1ns slow threshold.
	if got := f.Recent(TraceFilter{SlowOnly: true}); len(got) != 6 {
		t.Errorf("slow filter got %d, want 6", len(got))
	}
}

func TestTracerSlowLog(t *testing.T) {
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	_, s := testStores(0, TraceLog{SlowThreshold: time.Millisecond, Logf: logf})
	fast, slow := txn.ID(1), txn.ID(2)
	s.Begin(fast, at(0))
	s.Finish(fast, at(0), "committed", false)
	s.Begin(slow, at(0))
	s.Record(slow, Event{At: at(0), Kind: EvSubmitted})
	s.Finish(slow, at(1), "committed", false)
	if len(logged) != 1 || !strings.Contains(logged[0], "slow transaction") {
		t.Fatalf("slow log = %q", logged)
	}
	if !strings.Contains(logged[0], slow.String()) {
		t.Errorf("log misses txn id: %q", logged[0])
	}

	// Aborted logging is off by default.
	s.Begin(3, at(0))
	s.Finish(3, at(0), "aborted", true)
	if len(logged) != 1 {
		t.Fatalf("aborted transaction logged without LogAborted: %q", logged)
	}
	_, s2 := testStores(0, TraceLog{Logf: logf, LogAborted: true})
	id := txn.ID(4)
	s2.Begin(id, at(0))
	s2.Finish(id, at(0), "aborted", true)
	if len(logged) != 2 || !strings.Contains(logged[1], "aborted transaction") ||
		!strings.Contains(logged[1], id.String()) {
		t.Fatalf("aborted log = %q", logged)
	}
}

// TestTraceFaultsAttached: one fault log entry per fault, shown by the
// traces whose [start, end] holds its instant (in-flight traces have no
// end yet), in time order among their own events.
func TestTraceFaultsAttached(t *testing.T) {
	f := NewSpanStores(SpanStoreConfig{}, []string{"a", "b"})
	a, b := f.For("a"), f.For("b")
	a.Begin(1, at(0)) // decided before the fault
	a.Finish(1, at(5), "committed", false)
	b.Begin(2, at(0)) // decided after it
	b.Record(2, Event{At: at(1), Kind: EvSubmitted})
	b.Record(2, Event{At: at(20), Kind: EvFinal})
	b.Finish(2, at(20), "aborted", false)
	a.Begin(3, at(8)) // still in flight
	f.Faults().Record(at(10), "", "link cut")

	if tr, _ := f.Trace(1); len(tr.Events) != 0 {
		t.Errorf("trace decided before the fault shows %+v", tr.Events)
	}
	tr, _ := f.Trace(2)
	var kinds []string
	for _, e := range tr.Events {
		kinds = append(kinds, e.Kind.String())
	}
	if fmt.Sprint(kinds) != "[submitted fault final]" || !tr.Events[1].At.Equal(at(10)) ||
		tr.Events[1].Note != "link cut" {
		t.Errorf("events %v %+v", kinds, tr.Events)
	}
	if tr, _ := f.Trace(3); len(tr.Events) != 1 || tr.Events[0].Kind != EvFault {
		t.Errorf("in-flight trace events %+v", tr.Events)
	}
	if got := f.Recent(TraceFilter{AbortedOnly: true}); len(got) != 1 || len(got[0].Events) != 3 {
		t.Errorf("listing lost the fault: %+v", got)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var s *SpanStore
	id := txn.NewID()
	s.Begin(id, at(0))
	s.Record(id, Event{Kind: EvSubmitted})
	s.Finish(id, at(0), "committed", false)
	var f *SpanStores
	if _, ok := f.Trace(id); ok {
		t.Error("nil store found a trace")
	}
	if got := f.Recent(TraceFilter{}); got != nil {
		t.Errorf("nil store returned traces: %v", got)
	}
	f.Faults().Record(at(0), "", "fault")
}

// TestTracerConcurrency floods one store from many goroutines: events for
// private transactions, faults, spans, and cross-cutting Trace, Recent and
// Spans readers that read every event and span they get. The store holds
// four transactions, so records are reused while readers hold their
// results: run under -race, a result that still shares a record's storage
// fails.
func TestTracerConcurrency(t *testing.T) {
	f, s := testStores(4, TraceLog{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := txn.NewID()
				s.Begin(id, time.Now(), Event{At: time.Now(), Kind: EvSubmitted})
				for e := 0; e < 5; e++ {
					s.Record(id, Event{At: time.Now(), Kind: EvVote, Key: "k", Accept: true})
				}
				s.Add(Span{Txn: id, ID: NewSpanID(), Stage: StageSubmit, Region: "r"})
				s.Finish(id, time.Now(), "committed", false, Event{At: time.Now(), Kind: EvFinal, Accept: true})
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var read int
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Gather first, then read everything without touching the
			// store: a record reused meanwhile races with these reads.
			var traces []Trace
			var spans [][]Span
			for _, tr := range f.Recent(TraceFilter{Limit: 5}) {
				traces = append(traces, tr)
				if live, ok := f.Trace(tr.ID); ok {
					traces = append(traces, live)
				}
				spans = append(spans, f.Spans(tr.ID))
			}
			f.Faults().Record(time.Now(), "", "noise")
			for _, tr := range traces {
				for _, e := range tr.Events {
					read += len(e.Key) + len(e.Region) + len(e.Note) + int(e.Kind)
				}
			}
			for _, sps := range spans {
				for _, sp := range sps {
					read += len(sp.Region) + int(sp.Stage)
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	for _, got := range f.Recent(TraceFilter{}) {
		votes := 0
		for _, e := range got.Events {
			if e.Kind == EvVote {
				votes++
			}
		}
		if votes != 5 {
			t.Fatalf("trace %s has %d votes, want 5", got.ID, votes)
		}
	}
}
