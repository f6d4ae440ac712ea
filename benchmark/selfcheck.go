package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the program reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("benchmark: %w", err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("benchmark: BENCHMARK.json: %w", err)
	}
	return &f, nil
}

// worseBy reports by what share of a the value b is worse than a, for a
// metric where `better` is "higher" or "lower"; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck runs every workload twice on the same tree with the same
// seed and requires each end-to-end metric of the pair to agree within the
// bound BENCHMARK.json fixes for it, whichever run is taken as the base.
func runSelfcheck(e *env, o runOpts, stdout io.Writer) int {
	bf, err := loadBenchmarkFile(e.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ok := true
	fmt.Fprintf(stdout, "%-22s %-12s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "apart", "bound")
	for _, name := range workloadNames {
		var pair [2]*result
		for i := range pair {
			r, err := runCalibrated(e, name, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if !r.correct {
				r.print(stdout, false)
				ok = false
			}
			pair[i] = r
		}
		for _, m := range bf.EndToEnd {
			a, b := pair[0].e2e[m.Name], pair[1].e2e[m.Name]
			apart := math.Max(worseBy(a, b, m.Better), worseBy(b, a, m.Better))
			verdict := ""
			if apart > m.Bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Fprintf(stdout, "%-22s %-12s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", name, m.Name, a, b, 100*apart, 100*m.Bound, verdict)
		}
	}
	if !ok {
		fmt.Fprintln(stdout, "selfcheck FAILED: two runs of the same tree disagree beyond a bound, or an output check failed")
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck passed: every end-to-end metric of every pair agrees within its bound")
	return 0
}

// runSpread runs every workload n times, each with another seed, and prints
// for each end-to-end metric the median and the spread as the driver
// computes it (distance between first and third quartile over the median).
// It fails if a spread, set-up time's excepted, exceeds the metric's bound.
func runSpread(e *env, o runOpts, n int, stdout io.Writer) int {
	bf, err := loadBenchmarkFile(e.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ok := true
	fmt.Fprintf(stdout, "%-22s %-12s %14s %9s %11s %7s\n", "workload", "metric", "median", "spread", "raw spread", "bound")
	for _, name := range workloadNames {
		vals := make(map[string][]float64)
		raw := make(map[string][]float64)
		for i := 0; i < n; i++ {
			ro := o
			ro.seed = o.seed + int64(i)
			r, err := runCalibrated(e, name, ro)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if !r.correct {
				r.print(stdout, false)
				ok = false
			}
			for _, m := range bf.EndToEnd {
				vals[m.Name] = append(vals[m.Name], r.e2e[m.Name])
			}
			for _, d := range r.detail {
				raw[d.name] = append(raw[d.name], d.value)
			}
		}
		for _, m := range bf.EndToEnd {
			sp := quartileSpread(vals[m.Name])
			verdict := ""
			if sp > m.Bound && m.Name != "setup_s" {
				verdict = "  TOO WIDE"
				ok = false
			}
			fmt.Fprintf(stdout, "%-22s %-12s %14.4f %8.1f%% %10.1f%% %6.0f%%%s\n",
				name, m.Name, median(vals[m.Name]), 100*sp, 100*quartileSpread(raw["raw_"+m.Name]), 100*m.Bound, verdict)
		}
	}
	if !ok {
		fmt.Fprintln(stdout, "spread check FAILED")
		return 1
	}
	return 0
}
