package multinet

// Cross-process trace tests: the causal span tree must stitch together from
// spans recorded in separate OS processes (coordinator, master, replicas),
// and must stay stitched across a kill -9 / WAL-replay cycle.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"planet/internal/httpapi"
	"planet/internal/mdcc"
	"planet/internal/simnet"
)

// pollTrace fetches a transaction's trace from the region's gateway until
// ok(spans) holds (spans from other processes arrive asynchronously via
// span-report frames) or the budget passes, returning the last response.
func pollTrace(t *testing.T, n *Network, r simnet.Region, id string,
	budget time.Duration, ok func([]httpapi.SpanJSON) bool) httpapi.TraceResponse {
	t.Helper()
	cl := n.Client(r)
	deadline := time.Now().Add(budget)
	var last httpapi.TraceResponse
	for {
		tr, err := cl.Trace(id)
		if err == nil {
			last = tr
			if ok(tr.Spans) {
				return tr
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s on %s incomplete after %v: %d spans %+v",
				id, r, budget, len(last.Spans), last.Spans)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// spansByStage filters the wire-form spans by stage name.
func spansByStage(spans []httpapi.SpanJSON, stage string) []httpapi.SpanJSON {
	var out []httpapi.SpanJSON
	for _, sp := range spans {
		if sp.Stage == stage {
			out = append(out, sp)
		}
	}
	return out
}

// TestRealnetStitchedTrace is the tentpole acceptance scenario at process
// level: with the master pinned to a third process and the classic path
// forced, one transaction's trace — fetched from the coordinating gateway —
// must contain coordinator spans, a master_arbitrate span recorded by the
// master's process, and decide-broadcast spans recorded by at least two
// replica processes, all linked into a single causal tree. The attribution
// endpoint must then serve a ranked per-stage table built from those spans.
func TestRealnetStitchedTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level harness")
	}
	gw := simnet.Region("us-west")
	master := simnet.Region("us-east")
	n := start(t, Config{Mode: "classic", MasterRegion: master, CommitTimeout: 3 * time.Second})
	sess := n.Session(gw, 8*time.Second)
	keys := acctKeys()

	// A handful of transfers: the first warms connections, the rest give
	// the attribution engine enough samples to rank variance.
	var lastCommitted string
	for i := 0; i < 8; i++ {
		committed, id, err := sess.Transfer(keys[i%len(keys)], keys[(i+3)%len(keys)], 1)
		if err != nil {
			t.Fatal(err)
		}
		if committed {
			lastCommitted = id
		}
	}
	if lastCommitted == "" {
		t.Fatal("no transfer committed on a healthy cluster")
	}

	tr := pollTrace(t, n, gw, lastCommitted, 10*time.Second, func(spans []httpapi.SpanJSON) bool {
		regions := make(map[string]bool)
		for _, sp := range spansByStage(spans, "decide_broadcast") {
			regions[sp.Region] = true
		}
		return len(spansByStage(spans, "total")) == 1 &&
			len(spansByStage(spans, "master_arbitrate")) >= 1 &&
			len(regions) >= 2
	})

	// One causal tree: a unique root, and every other span's parent chain
	// resolves to it — including the spans that crossed process boundaries.
	byID := make(map[uint64]httpapi.SpanJSON, len(tr.Spans))
	for _, sp := range tr.Spans {
		byID[sp.ID] = sp
	}
	root := spansByStage(tr.Spans, "total")[0]
	if root.Parent != 0 {
		t.Errorf("root span has parent %d", root.Parent)
	}
	for _, sp := range tr.Spans {
		cur, hops := sp, 0
		for cur.ID != root.ID {
			parent, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("%s span %d (region %s) has dangling parent %d",
					sp.Stage, sp.ID, sp.Region, cur.Parent)
			}
			if hops++; hops > len(tr.Spans) {
				t.Fatalf("parent cycle at %s span %d", sp.Stage, sp.ID)
			}
			cur = parent
		}
	}
	for _, sp := range spansByStage(tr.Spans, "master_arbitrate") {
		if sp.Region != string(master) {
			t.Errorf("master_arbitrate span from %s, want %s", sp.Region, master)
		}
	}

	// The same spans, aggregated: the gateway's attribution endpoint serves
	// a ranked snapshot with a dominant stage.
	snap, err := n.Client(gw).Attribution()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Stages) == 0 || snap.Dominant == "" {
		t.Fatalf("attribution snapshot empty: %+v", snap)
	}
	seen := make(map[string]bool, len(snap.Stages))
	for _, st := range snap.Stages {
		seen[st.Stage] = true
	}
	for _, want := range []string{"total", "master_arbitrate", "decide_broadcast", "replica_wal"} {
		if !seen[want] {
			t.Errorf("attribution snapshot missing stage %s: %+v", want, snap.Stages)
		}
	}
}

// TestRealnetTraceContinuityAcrossCrash kills -9 a replica after it has
// durably logged traced decisions, then restarts it and requires the
// replayed WAL to re-link its decisions to the pre-crash causal tree: the
// restarted process must serve a replay span whose parent is the very
// option-RPC span id the coordinator's process recorded before the crash.
func TestRealnetTraceContinuityAcrossCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level harness")
	}
	gw := simnet.Region("us-west")
	victim := simnet.Region("eu-west")
	n := start(t, Config{CommitTimeout: 3 * time.Second})
	sess := n.Session(gw, 8*time.Second)
	keys := acctKeys()

	var last string
	for i := 0; i < 5; i++ {
		committed, id, err := sess.Transfer(keys[i%len(keys)], keys[(i+2)%len(keys)], 1)
		if err != nil || !committed {
			t.Fatalf("transfer %s: committed=%v err=%v", id, committed, err)
		}
		last = id
	}
	// Span reports are deferrable: the victim may hold its last one for a
	// couple of milliseconds after the commit is acknowledged, and kill -9
	// would take it along (lost telemetry, by design). Let it land first.
	pollTrace(t, n, gw, last, 10*time.Second, func(spans []httpapi.SpanJSON) bool {
		for _, sp := range spansByStage(spans, "option_rpc") {
			if sp.Region == string(victim) {
				return true
			}
		}
		return false
	})

	if err := n.Kill(victim); err != nil {
		t.Fatal(err)
	}

	// Read the dead process's WAL straight off disk: the trace context must
	// have been persisted with the decision entries before the kill.
	walPath := filepath.Join(n.nodes[victim].DataDir, "wal-"+string(victim)+".jsonl")
	f, err := os.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	var anchor mdcc.Entry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e mdcc.Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			continue // a torn tail is legitimate after SIGKILL
		}
		if e.Commit && e.OptionSpan != 0 && e.TraceSpan != 0 {
			anchor = e
		}
	}
	f.Close()
	if anchor.OptionSpan == 0 {
		t.Fatal("no WAL entry persisted its trace context before the kill")
	}

	// The pre-crash half of the link: the coordinator's process still holds
	// the option-RPC span the WAL entry points at.
	id := anchor.Txn.String()
	coordTr := pollTrace(t, n, gw, id, 10*time.Second, func(spans []httpapi.SpanJSON) bool {
		return len(spans) > 0
	})
	var foundOption bool
	for _, sp := range coordTr.Spans {
		if sp.ID == anchor.OptionSpan {
			if sp.Stage != "option_rpc" {
				t.Errorf("WAL anchor %d is a %s span at the coordinator, want option_rpc",
					anchor.OptionSpan, sp.Stage)
			}
			if sp.Region != string(victim) {
				t.Errorf("anchor option span region %s, want %s", sp.Region, victim)
			}
			foundOption = true
		}
	}
	if !foundOption {
		t.Fatalf("coordinator trace lacks the option span %d the victim's WAL anchors to",
			anchor.OptionSpan)
	}

	// The post-crash half: restart, replay, and the replayed decision span
	// must parent-link to that same pre-crash option span id.
	if err := n.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if ok, err := n.GrepLog(victim, "WAL replay"); err != nil || !ok {
		t.Errorf("restarted node did not report a WAL replay (err=%v)", err)
	}
	victimTr := pollTrace(t, n, victim, id, 10*time.Second, func(spans []httpapi.SpanJSON) bool {
		return len(spansByStage(spans, "replica_wal")) >= 1
	})
	var foundReplay bool
	for _, sp := range spansByStage(victimTr.Spans, "replica_wal") {
		if sp.Parent == anchor.OptionSpan && sp.Note == "replay" {
			foundReplay = true
		}
	}
	if !foundReplay {
		t.Errorf("no replay span links to pre-crash option span %d: %+v",
			anchor.OptionSpan, victimTr.Spans)
	}
}
