// Package experiments implements the reproduction of every table and figure
// in the (reconstructed) PLANET evaluation — see DESIGN.md for the index.
// Each experiment is a function from a Config to a Result; the benchmark
// harness (cmd/planetbench) and the repository-level benchmarks
// (bench_test.go) both call into this package so the numbers they report
// are produced by identical code.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/regions"
)

// Config parameterizes an experiment run.
type Config struct {
	// TimeScale compresses WAN time; 0 uses cluster.DefaultTimeScale.
	TimeScale float64
	// Seed drives all randomness.
	Seed int64
	// Quick shrinks workload sizes for CI and go-test runs.
	Quick bool
	// EarlyAbort turns on optimistic abort propagation at every
	// coordinator (see cluster.Config.EarlyAbort). Off by default so the
	// published tables keep measuring the paper's baseline protocol;
	// before/after comparisons flip it on the same experiment.
	EarlyAbort bool
}

// scale returns the effective time scale.
func (c Config) scale() float64 {
	if c.TimeScale <= 0 {
		return cluster.DefaultTimeScale
	}
	return c.TimeScale
}

// pick selects between the full and quick sizes.
func (c Config) pick(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// quiesceBudget bounds post-run network draining.
func (c Config) quiesceBudget() time.Duration { return 5 * time.Second }

// Result is one experiment's output: human-readable text plus headline
// metrics for programmatic checks.
type Result struct {
	Name    string
	Text    string
	Metrics map[string]float64
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("=== %s ===\n%s", r.Name, r.Text)
}

// MetricKeys returns the metric names sorted (stable output).
func (r Result) MetricKeys() []string {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FormatMetrics renders the metrics block.
func (r Result) FormatMetrics() string {
	var b strings.Builder
	for _, k := range r.MetricKeys() {
		fmt.Fprintf(&b, "%-40s %12.4f\n", k, r.Metrics[k])
	}
	return b.String()
}

// openDB builds a cluster and a DB on it, returning the teardown an arm
// defers. Always in virtual time — the evaluation executes at CPU speed and
// is a pure function of Seed.
func openDB(cfg Config, ccfg cluster.Config, pcfg planet.Config) (*planet.DB, func(), error) {
	if ccfg.Topology.Matrix == nil {
		ccfg.Topology = regions.Five()
	}
	ccfg.TimeScale = cfg.scale()
	ccfg.VirtualTime = true
	ccfg.EarlyAbort = cfg.EarlyAbort
	if ccfg.Seed == 0 {
		ccfg.Seed = cfg.Seed + 1
	}
	if ccfg.CommitTimeout == 0 {
		// Generous, so that timeout-aborts appear only where an experiment
		// sets a tighter budget on purpose.
		ccfg.CommitTimeout = 30 * time.Second
	}
	c, err := cluster.New(ccfg)
	if err != nil {
		return nil, nil, err
	}
	// Close stops the scheduler, Quiesce waits out deliveries already
	// running: a torn-down arm leaves nothing beside its siblings.
	teardown := func() {
		c.Close()
		c.Quiesce(cfg.quiesceBudget())
	}
	pcfg.Cluster = c
	db, err := planet.Open(pcfg)
	if err != nil {
		teardown()
		return nil, nil, err
	}
	return db, teardown, nil
}

// wan converts a measured emulator duration to WAN time for reporting.
func wan(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) / scale).Round(time.Millisecond)
}

// ms returns the duration as float milliseconds of WAN time.
func ms(d time.Duration, scale float64) float64 {
	return float64(d) / scale / float64(time.Millisecond)
}

// Registry maps experiment IDs to runners, in the order DESIGN.md lists
// them. cmd/planetbench iterates this.
var Registry = []struct {
	ID    string
	Title string
	Run   func(Config) (Result, error)
}{
	{"t1", "Inter-DC RTT matrix (calibration)", T1RTTMatrix},
	{"f1", "Commit-latency CDF, classic vs fast path", F1CommitCDF},
	{"f2", "Likelihood calibration (predicted vs observed)", F2Calibration},
	{"f3", "Likelihood trajectory over transaction lifetime", F3Trajectory},
	{"f4", "Speculation threshold sweep", F4Speculation},
	{"f5", "Admission control: goodput vs offered load", F5AdmissionLoad},
	{"f6", "Commit rate vs contention (hotspot size)", F6Contention},
	{"f7", "Stage-latency table", F7Stages},
	{"f8", "Scaling with datacenter count", F8Scale},
	{"a1", "Ablation: fast vs classic under conflicts", A1FastVsClassic},
	{"a2", "Ablation: predictor terms and Monte-Carlo check", A2PredictorAblation},
	{"a3", "Ablation: commutative updates (demarcation)", A3Commutative},
	{"e1", "Extension: message-loss sweep", E1LossSweep},
	{"e2", "Extension: latency-jitter sweep", E2JitterSweep},
	{"e3", "Extension: attribution feed vs predictor calibration", E3AttributionFeed},
	{"f9", "Open-loop surge: static vs adaptive admission", F9OpenLoopSurge},
}

// Find returns the registered experiment with the given ID.
func Find(id string) (func(Config) (Result, error), bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}
