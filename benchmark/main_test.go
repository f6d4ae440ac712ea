package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestNormalizeArgs(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"--workload", "sim_suite", "--seed", "3", "--seconds", "10", "--trace", "0"},
			[]string{"--workload", "sim_suite", "--seed", "3", "--seconds", "10", "-trace=0"}},
		{[]string{"--trace", "1", "-seed", "2"}, []string{"-trace=1", "-seed", "2"}},
		{[]string{"-trace", "-out", "spans.jsonl"}, []string{"-trace", "-out", "spans.jsonl"}},
		{[]string{"-trace"}, []string{"-trace"}},
	} {
		if got := normalizeArgs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("normalizeArgs(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestResultLineCarriesEveryMetric(t *testing.T) {
	r := newResult("sim_suite")
	r.attempted, r.failed = 32, 0
	for _, m := range endToEnd {
		r.e2e[m.name] = 1.5
	}
	for _, trace := range []bool{false, true} {
		line, err := resultLine(r, trace)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
			t.Fatalf("result line lacks a required key: %s", line)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(got.Metrics), len(want))
		}
		for _, m := range want {
			g, ok := got.Metrics[m.name]
			if !ok || g.Value == nil || g.Unit != m.unit {
				t.Errorf("trace=%v: metric %s missing or with the wrong unit: %+v", trace, m.name, g)
			}
		}
	}
}

// Each metric is rescaled by the stretch of the phase it was measured in:
// set-up time by the set-up phases', the rest by the timed phases'.
func TestNormalizeRescalesByPhaseStretch(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	cal := &calibrator{samples: []calSample{
		{at(1), 2 * calibRefNs},   // set-up phase
		{at(5), 1.5 * calibRefNs}, // timed phase
		{at(6), 1.5 * calibRefNs},
		{at(9), 40 * calibRefNs}, // in no phase: ignored
	}}
	r := newResult("x")
	r.addSetup(3, at(0), at(2))
	r.timed = []phase{{at(4), at(7)}}
	r.e2e["ops_per_s"], r.e2e["op_p50_ms"] = 100, 6
	r.normalize(cal)
	for name, want := range map[string]float64{"setup_s": 1.5, "ops_per_s": 150, "op_p50_ms": 4} {
		if got := r.e2e[name]; got != want {
			t.Errorf("normalized %s = %v, want %v", name, got, want)
		}
	}
	// No sample inside the phases: fall back to every sample of the run.
	if got, n := cal.stretch([]phase{{at(20), at(21)}}); n != 4 || got != 45.0/4 {
		t.Errorf("fallback stretch = %v over %d samples, want %v over 4", got, n, 45.0/4)
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join(".."))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		g := bf.EndToEnd[i]
		if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, g, m)
		}
		if g.Bound <= 0 || g.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", g.Name, g.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		g := bf.PerLayer[i]
		if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, g, m)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
}

// TestSmoke runs every workload end to end with short windows, the traced
// run included: a fleet of real processes, so it is skipped under -short.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches planetd fleets; skipped with -short")
	}
	for _, args := range [][]string{
		{"-smoke", "-workload", "all", "-seed", "5"},
		{"-smoke", "-workload", "live_add_fast", "-seed", "5", "-trace", "-out", filepath.Join(t.TempDir(), "spans.jsonl")},
	} {
		var out bytes.Buffer
		if code := run(args, &out); code != 0 {
			t.Fatalf("benchmark %v exited %d:\n%s", args, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last jsonResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
			t.Errorf("benchmark %v: result %+v", args, last)
		}
	}
}
