package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"planet/internal/experiments"
)

// metricDef names one metric of the contract. BENCHMARK.json lists the same
// names and units; TestBenchmarkJSONMatchesRegistry holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports all three; what one "op" is differs per workload
// and is stated in BENCHMARK.json and README.md:
//
//	live_add_fast        one committed transaction through the gateway
//	live_set_classic     one loop iteration: a 2-op classic commit + 4 local reads
//	sim_openloop_commit  500 ledger events (arrivals injected + transactions committed), wall time
//	sim_suite            one quick-mode experiment of the registry, wall time
//
// There is no tail percentile among them: on this host a p99 (or p95, or
// p90) of the same tree reads 15-20 % apart from run to run even after
// normalization, which no bound the contract allows can hold. The tails are
// printed in the human-readable block and reported as per-layer metrics
// (live.commit_p99_ms, httpapi.read_p99_ms), which carry no bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
}

// perLayer lists the single-layer metrics the traced run reports. A metric a
// workload does not exercise reads 0 on that workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// Gateway. self_us are ladder rung differences on the in-process
		// trio; server_p50_ms and the client-side read percentiles come
		// from the live fleet.
		{"httpapi.self_us", "us", "lower"},
		{"httpapi.read_self_us", "us", "lower"},
		{"httpapi.server_p50_ms", "ms", "lower"},
		{"httpapi.read_p50_ms", "ms", "lower"},
		{"httpapi.read_p99_ms", "ms", "lower"},
		{"live.commit_p50_ms", "ms", "lower"},
		{"live.commit_p99_ms", "ms", "lower"},
		{"live.commits_per_s", "1/s", "higher"},
		{"core.self_us", "us", "lower"},
		{"core.txn_p50_ms", "ms", "lower"},
		{"predictor.likelihood_ns", "ns", "lower"},
		{"predictor.submit_ns", "ns", "lower"},
		{"mdcc.coordinator.self_us", "us", "lower"},
		{"mdcc.coordinator.handle_us", "us", "lower"},
		{"mdcc.fallbacks_per_commit", "ratio", "lower"},
		{"mdcc.timeouts_per_commit", "ratio", "lower"},
		{"mdcc.decision_p50_ms", "ms", "lower"},
		{"mdcc.master.handle_us", "us", "lower"},
		{"mdcc.classic_msgs_per_commit", "count", "lower"},
		{"mdcc.replica.handle_us", "us", "lower"},
		{"mdcc.replica.propose_decide_ns", "ns", "lower"},
		{"mdcc.replica.read_ns", "ns", "lower"},
		{"mdcc.wire.encode_ns_per_commit", "ns", "lower"},
		{"mdcc.wire.decode_ns_per_commit", "ns", "lower"},
		{"mdcc.wire.bytes_per_commit", "B", "lower"},
		{"mdcc.wire.msgs_per_commit", "count", "lower"},
		{"mdcc.wal.append_us", "us", "lower"},
		{"mdcc.wal.bytes_per_commit", "B", "lower"},
		{"mdcc.wal.replay_us_per_entry", "us", "lower"},
		{"mdcc.wal.file_bytes_per_commit", "B", "lower"},
		{"realnet.rtt_us", "us", "lower"},
		{"realnet.send_us", "us", "lower"},
		{"realnet.msgs_per_commit", "count", "lower"},
		{"realnet.dropped", "count", "lower"},
		{"realnet.reconnects", "count", "lower"},
		{"simnet.send_ns", "ns", "lower"},
		{"simnet.msgs_per_commit", "count", "lower"},
		{"vclock.virtual.timer_ns", "ns", "lower"},
		{"vclock.world.cpu_over_wall", "ratio", "higher"},
		{"vclock.world.speedup", "ratio", "higher"},
	}
	for _, e := range experiments.Registry {
		defs = append(defs, metricDef{"experiments." + e.ID + ".wall_ms", "ms", "lower"})
	}
	return append(defs,
		metricDef{"planetd.cpu_ms_per_commit", "ms", "lower"},
		metricDef{"planetd.peak_rss_mb", "MiB", "lower"},
		metricDef{"loadgen.cpu_frac", "ratio", "lower"},
		metricDef{"loadgen.late_start_ms", "ms", "lower"},
		metricDef{"go.allocs_per_commit", "count", "lower"},
		metricDef{"go.bytes_per_commit", "B", "lower"},
		metricDef{"go.gc_pause_ms", "ms", "lower"},
		metricDef{"build_s", "s", "lower"},
		metricDef{"ladder.sum_us", "us", "lower"},
		metricDef{"ladder.coverage_frac", "ratio", "higher"},
		metricDef{"trace.overhead_frac", "ratio", "lower"},
	)
}

// detailLine is one human-readable metric: the issue's per-workload names
// (commits_per_s, commit_p50_ms, read_p99_ms, wall_s, failed_frac, ...) with
// the sample count behind each timing.
type detailLine struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value; 0 when it is not a timing
}

// result is what one workload run produces.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	e2e       map[string]float64
	layers    map[string]float64
	detail    []detailLine
	// problems are the output-check and run-validity failures, one line each.
	problems []string
	// fingerprint is a deterministic function of the seed for the sim
	// workloads (virtual-time results), recorded for the output check.
	fingerprint string
	// timed is the stretches of wall time the end-to-end timings were
	// measured in; setupS holds the run's set-up samples, in seconds, and
	// setups the stretch of wall time each was measured in. The
	// calibrator's samples from exactly those normalize them.
	timed  []phase
	setupS []float64
	setups []phase
}

// addSetup records one set-up sample and when it was measured.
func (r *result) addSetup(seconds float64, from, to time.Time) {
	r.setupS = append(r.setupS, seconds)
	r.setups = append(r.setups, phase{from, to})
}

func newResult(workload string) *result {
	return &result{
		workload: workload,
		correct:  true,
		e2e:      make(map[string]float64),
		layers:   make(map[string]float64),
	}
}

// fail records a failed output check or validity rule.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) add(name string, value float64, unit string, n int) {
	r.detail = append(r.detail, detailLine{name, value, unit, n})
}

// normalize rescales the end-to-end metrics to the reference processor speed
// (see calib.go). Every set-up sample is divided by the stretch measured
// while it ran, and setup_s is the median of those; the other timings are
// divided by the stretch measured during the timed phases, and the rate
// multiplied by it. The raw values stay on record in the detail block.
func (r *result) normalize(cal *calibrator) {
	timed, nTimed := cal.stretch(r.timed)
	setup, nSetup := cal.stretch(r.setups)
	r.e2e["setup_s"] = median(r.setupS)
	for _, m := range endToEnd {
		r.add("raw_"+m.name, r.e2e[m.name], m.unit, 0)
	}
	r.add("cpu_stretch", timed, "ratio", nTimed)
	r.add("cpu_stretch_setup", setup, "ratio", nSetup)
	normSetups := make([]float64, len(r.setupS))
	for i, s := range r.setupS {
		normSetups[i] = s / setup
		if own, n := cal.stretch(r.setups[i : i+1]); n >= minSetupSamples {
			normSetups[i] = s / own
		}
	}
	for _, m := range endToEnd {
		switch {
		case m.name == "setup_s":
			r.e2e[m.name] = median(normSetups)
		case m.better == "higher":
			r.e2e[m.name] *= timed
		default:
			r.e2e[m.name] /= timed
		}
	}
}

// minSetupSamples is how many calibrator samples a set-up phase must hold to
// be normalized by its own stretch instead of all the set-up phases'.
const minSetupSamples = 4

// failedFrac is failed operations over operations attempted.
func (r *result) failedFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// print writes the human-readable block for the workload.
func (r *result) print(w io.Writer, trace bool) {
	fmt.Fprintf(w, "== %s ==\n", r.workload)
	for _, d := range r.detail {
		if d.n > 0 {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s (n=%d)\n", d.name, d.value, d.unit, d.n)
		} else {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, d.value, d.unit)
		}
	}
	fmt.Fprintf(w, "  %-34s %14.6f ratio  (%d failed of %d attempted)\n", "failed_frac", r.failedFrac(), r.failed, r.attempted)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", "[e2e] "+m.name, r.e2e[m.name], m.unit)
	}
	if trace {
		names := make([]string, 0, len(r.layers))
		for k := range r.layers {
			names = append(names, k)
		}
		sort.Strings(names)
		units := make(map[string]string, len(perLayer))
		for _, m := range perLayer {
			units[m.name] = m.unit
		}
		for _, k := range names {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", "[layer] "+k, r.layers[k], units[k])
		}
	}
	if r.fingerprint != "" {
		fmt.Fprintf(w, "  fingerprint %s\n", r.fingerprint)
	}
	if len(r.problems) > 0 {
		fmt.Fprintf(w, "  CHECK FAILED:\n    %s\n", strings.Join(r.problems, "\n    "))
	} else {
		fmt.Fprintf(w, "  output checks passed\n")
	}
}
