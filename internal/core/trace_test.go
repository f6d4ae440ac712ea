package planet_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/obs"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/workload"
)

// TestTraceSpansFormCausalTree commits one fast-path transaction with
// tracing on and requires the recorded spans to stitch into a single causal
// tree rooted at the transaction's total span: coordinator-side stages
// parent the root, replica option-RPC legs parent the root, vote returns
// parent their option-RPC legs, and replica WAL appends parent the decide
// broadcast that triggered them.
func TestTraceSpansFormCausalTree(t *testing.T) {
	db := openTestDB(t, planet.Config{Trace: true}, cluster.Config{WAL: true})
	checkCausalTree(t, commitTraced(t, db, ""))
}

// TestTraceSpansFormCausalTreeDecideLost drops the decide to one replica,
// whose vote counted toward the quorum. Its option-RPC leg must still parent
// its vote's return, so the tree stays whole, and against the same commit
// with nothing lost only that replica's decide_broadcast and replica_wal
// spans are missing.
func TestTraceSpansFormCausalTreeDecideLost(t *testing.T) {
	lost := regions.Virginia // nearest to the coordinator: its vote is never late
	spans := commitTraced(t, openTestDB(t, planet.Config{Trace: true}, cluster.Config{WAL: true}), lost)
	checkCausalTree(t, spans)

	want := stageRegions(commitTraced(t, openTestDB(t, planet.Config{Trace: true}, cluster.Config{WAL: true}), ""))
	for _, st := range []obs.Stage{obs.StageDecideBroadcast, obs.StageReplicaWAL} {
		k := st.String() + "@" + string(lost)
		if want[k] != 1 {
			t.Fatalf("the commit with nothing lost has %d %s spans, want 1", want[k], k)
		}
		delete(want, k)
	}
	if got := stageRegions(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("spans by stage@region:\n got %v\nwant %v", got, want)
	}
}

// stageRegions counts spans by stage and region.
func stageRegions(spans []obs.Span) map[string]int {
	n := make(map[string]int)
	for _, sp := range spans {
		n[sp.Stage.String()+"@"+sp.Region]++
	}
	return n
}

// commitTraced commits one fast-path Set from California and returns its
// spans once the network has drained. A non-empty lost region never
// receives the decide: the link to it is cut after the proposals left.
func commitTraced(t *testing.T, db *planet.DB, lost simnet.Region) []obs.Span {
	t.Helper()
	db.Cluster().SeedBytes("tr", []byte("v0"))
	s := session(t, db, regions.California)
	tx := s.Begin()
	tx.Set("tr", []byte("v1"))
	h, err := tx.Commit(planet.CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lost != "" {
		db.Cluster().Net.SetLinkCut(regions.California, lost, true)
	}
	if o := h.Wait(); !o.Committed {
		t.Fatalf("outcome: %+v", o)
	}
	// Remote replicas' decide-time spans ride spanReportMsg messages that
	// land after the decision; quiescing the network delivers them.
	if !db.Cluster().Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	return db.Spans().Spans(h.ID())
}

// checkCausalTree requires spans to form one causal tree under a single
// total span, with each stage under the parent it must have.
func checkCausalTree(t *testing.T, spans []obs.Span) {
	t.Helper()
	byStage := func(sps []obs.Span, st obs.Stage) []obs.Span {
		var out []obs.Span
		for _, sp := range sps {
			if sp.Stage == st {
				out = append(out, sp)
			}
		}
		return out
	}
	if len(byStage(spans, obs.StageReplicaWAL)) < 1 ||
		len(byStage(spans, obs.StageOptionRPC)) < 2 ||
		len(byStage(spans, obs.StageClientNotify)) < 1 {
		t.Fatalf("span tree incomplete once the network drained: %d spans %+v", len(spans), spans)
	}

	roots := byStage(spans, obs.StageTotal)
	if len(roots) != 1 {
		t.Fatalf("got %d total spans, want 1", len(roots))
	}
	root := roots[0]
	if root.Parent != 0 {
		t.Errorf("root span has parent %d", root.Parent)
	}

	ids := make(map[uint64]obs.Span, len(spans))
	for _, sp := range spans {
		if sp.ID == 0 {
			t.Errorf("%s span has zero id", sp.Stage)
		}
		if _, dup := ids[sp.ID]; dup {
			t.Errorf("duplicate span id %d (%s)", sp.ID, sp.Stage)
		}
		ids[sp.ID] = sp
	}
	// Single tree: every non-root span's parent resolves, and walking
	// parents reaches the root.
	for _, sp := range spans {
		if sp.ID == root.ID {
			continue
		}
		cur, hops := sp, 0
		for cur.ID != root.ID {
			parent, ok := ids[cur.Parent]
			if !ok {
				t.Fatalf("%s span %d has dangling parent %d", sp.Stage, sp.ID, cur.Parent)
			}
			if hops++; hops > len(spans) {
				t.Fatalf("parent cycle at %s span %d", sp.Stage, sp.ID)
			}
			cur = parent
		}
	}
	// Stage-specific parentage.
	for _, sp := range byStage(spans, obs.StageSubmit) {
		if sp.Parent != root.ID {
			t.Errorf("submit span parents %d, want root", sp.Parent)
		}
	}
	for _, sp := range byStage(spans, obs.StageVoteReturn) {
		if p := ids[sp.Parent]; p.Stage != obs.StageOptionRPC {
			t.Errorf("vote_return parents %s, want option_rpc", p.Stage)
		}
	}
	for _, sp := range byStage(spans, obs.StageReplicaWAL) {
		if p := ids[sp.Parent]; p.Stage != obs.StageDecideBroadcast {
			t.Errorf("replica_wal parents %s, want decide_broadcast", p.Stage)
		}
	}
	for _, sp := range byStage(spans, obs.StageDecideBroadcast) {
		if sp.Parent != root.ID {
			t.Errorf("decide_broadcast parents %d, want root", sp.Parent)
		}
		if sp.Region == "" {
			t.Error("decide_broadcast span missing region")
		}
	}
	// The cross-process claim in miniature: option-RPC legs recorded at
	// distinct replicas all stitched under the one coordinator root.
	legs := byStage(spans, obs.StageOptionRPC)
	legRegions := make(map[string]bool)
	for _, sp := range legs {
		if sp.Parent != root.ID {
			t.Errorf("option_rpc parents %d, want root", sp.Parent)
		}
		legRegions[sp.Region] = true
	}
	if len(legRegions) < 2 {
		t.Errorf("option-RPC legs from %d regions, want >= 2", len(legRegions))
	}
}

// TestTraceDisabledIsFree checks the disabled path: no store, no spans, and
// handles carry no span ids.
func TestTraceDisabledIsFree(t *testing.T) {
	db := openTestDB(t, planet.Config{}, cluster.Config{})
	db.Cluster().SeedBytes("tn", []byte("v0"))
	s := session(t, db, regions.California)
	tx := s.Begin()
	tx.Set("tn", []byte("v1"))
	h, err := tx.Commit(planet.CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h.Wait()
	if db.Spans() != nil || db.Attribution() != nil {
		t.Error("tracing artifacts present with Trace off")
	}
}

// TestAttributionDeterminism runs the same seeded workload twice on the
// virtual clock with tracing on and requires bit-identical attribution
// tables: under discrete-event time the whole span pipeline — network legs,
// WAL appends, flush arrival order, EWMA folds — must be a pure function of
// the seed.
func TestAttributionDeterminism(t *testing.T) {
	run := func() string {
		c, err := cluster.New(cluster.Config{
			TimeScale:     0.05,
			Seed:          1789,
			WAL:           true,
			CommitTimeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			c.Close()
			c.Quiesce(5 * time.Second)
		}()
		db, err := planet.Open(planet.Config{Cluster: c, Trace: true, AttributionFeed: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (workload.Closed{
			Options: workload.Options{
				DB:       db,
				Template: workload.ReadModifyWrite{Keys: workload.Hotspot{Prefix: "ad-", HotKeys: 2, ColdKeys: 500, HotProb: 0.3}},
				Seed:     4242,
			},
			Clients: 8, PerClient: 10,
		}).Run(); err != nil {
			t.Fatal(err)
		}
		// Drain in-flight span flushes before snapshotting.
		c.Quiesce(5 * time.Second)
		return db.Attribution().Snapshot().Table()
	}
	t1, t2 := run(), run()
	if t1 != t2 {
		t.Errorf("same-seed runs produced different attribution tables:\n--- run 1\n%s--- run 2\n%s", t1, t2)
	}
	if !strings.Contains(t1, "dominant variance:") {
		t.Errorf("table missing dominant line:\n%s", t1)
	}
	for _, stage := range []string{"option_rpc", "vote_return", "decide_broadcast", "replica_wal", "total"} {
		if !strings.Contains(t1, stage) {
			t.Errorf("table missing stage %s:\n%s", stage, t1)
		}
	}
}

// TestTraceDeterminism runs the same seeded workload twice on the virtual
// clock with tracing on and requires identical per-transaction traces:
// every lifecycle event's kind, offset, key, region, verdict, likelihood
// (bit for bit) and note, and the span tree's shape — each span's stage,
// its parent's stage and its region, in recording order — span ids aside.
func TestTraceDeterminism(t *testing.T) {
	const txns = 80
	run := func() string {
		c, err := cluster.New(cluster.Config{
			TimeScale:     0.05,
			Seed:          1789,
			WAL:           true,
			CommitTimeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			c.Close()
			c.Quiesce(5 * time.Second)
		}()
		db, err := planet.Open(planet.Config{Cluster: c, Trace: true, TraceCapacity: txns})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (workload.Closed{
			Options: workload.Options{
				DB:          db,
				Template:    workload.ReadModifyWrite{Keys: workload.Hotspot{Prefix: "td-", HotKeys: 2, ColdKeys: 500, HotProb: 0.3}},
				SpeculateAt: 0.9,
				Deadline:    8 * time.Millisecond,
				Seed:        4242,
			},
			Clients: 8, PerClient: txns / 8,
		}).Run(); err != nil {
			t.Fatal(err)
		}
		c.Quiesce(5 * time.Second)

		traces := db.Spans().Recent(obs.TraceFilter{})
		if len(traces) != txns {
			t.Fatalf("%d finished traces, want %d", len(traces), txns)
		}
		var b strings.Builder
		for _, tr := range traces {
			fmt.Fprintf(&b, "%s %s speculated=%v slow=%v +%d\n", tr.ID, tr.Outcome, tr.Speculated, tr.Slow, tr.End.Sub(tr.Start))
			for _, e := range tr.Events {
				fmt.Fprintf(&b, "  %s +%d key=%s region=%s accept=%v likelihood=%x %s\n", e.Kind,
					e.At.Sub(tr.Start), e.Key, e.Region, e.Accept, math.Float64bits(e.Likelihood), e.Note)
			}
			spans := db.Spans().Spans(tr.ID)
			stages := make(map[uint64]string, len(spans))
			for _, sp := range spans {
				stages[sp.ID] = sp.Stage.String()
			}
			for _, sp := range spans {
				parent := "-"
				if sp.Parent != 0 {
					if parent = stages[sp.Parent]; parent == "" {
						parent = "?"
					}
				}
				fmt.Fprintf(&b, "  span %s<%s region=%s %s\n", sp.Stage, parent, sp.Region, sp.Note)
			}
		}
		return b.String()
	}
	t1, t2 := run(), run()
	if t1 != t2 {
		t.Errorf("same-seed runs recorded different traces:\n--- run 1\n%s--- run 2\n%s", t1, t2)
	}
	for _, kind := range []string{"submitted", "admission", "vote", "learned", "speculative", "deadline", "final"} {
		if !strings.Contains(t1, "  "+kind+" +") {
			t.Errorf("no %s event in any trace:\n%s", kind, t1)
		}
	}
}
