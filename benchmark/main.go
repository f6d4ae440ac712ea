// Command benchmark is the repository's yardstick: four workloads that
// measure a commit end to end — through the HTTP gateways of a live
// three-process planetd fleet, and through the virtual-clock simulator — and
// a traced run that breaks one commit into a per-layer budget.
//
//	go run -C benchmark . -workload <name|all> -seed N [-seconds S] [-trace] [-out file]
//	go run -C benchmark . -selfcheck
//	go run -C benchmark . -spread 10
//	go run -C benchmark . -smoke
//
// See README.md in this directory for what each workload and metric means.
// The last line of standard output is one JSON object, the form
// BENCHMARK.json's driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// workloadNames is the fixed order of `-workload all`.
var workloadNames = []string{"live_add_fast", "live_set_classic", "sim_openloop_commit", "sim_suite"}

// runWorkload runs one workload by name.
func runWorkload(e *env, name string, o runOpts) (*result, error) {
	switch name {
	case "live_add_fast", "live_set_classic":
		return runLive(e, liveSpecs[name], o)
	case "sim_openloop_commit":
		return runSimOpenLoop(o)
	case "sim_suite":
		return runSimSuite(o)
	}
	return nil, fmt.Errorf("benchmark: unknown workload %q (have %s, all)", name, strings.Join(workloadNames, ", "))
}

// runCalibrated runs one workload with the speed calibrator beside it and
// normalizes the end-to-end metrics by the stretches it measured.
func runCalibrated(e *env, name string, o runOpts) (*result, error) {
	cal := startCalibrator()
	r, err := runWorkload(e, name, o)
	cal.finish()
	if err != nil {
		return nil, err
	}
	r.normalize(cal)
	return r, nil
}

// jsonMetric is one metric of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the contract's result line.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultLine renders the result line: every end-to-end metric of an untraced
// run, every per-layer metric of a traced one.
func resultLine(r *result, trace bool) (string, error) {
	out := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	if trace {
		for _, m := range perLayer {
			out.Metrics[m.name] = jsonMetric{r.layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			out.Metrics[m.name] = jsonMetric{r.e2e[m.name], m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return "", fmt.Errorf("benchmark: result line: %w", err)
	}
	return string(b), nil
}

// normalizeArgs lets the boolean -trace flag also be written as the driver
// writes it, `--trace 0` or `--trace 1`, by folding the value into the flag.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 12, "timed seconds per workload")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and the per-commit budget table")
	out := fs.String("out", "", "traced run: write the recorded spans to this file as JSON lines")
	selfcheck := fs.Bool("selfcheck", false, "run every workload twice and compare each end-to-end metric against its bound")
	spread := fs.Int("spread", 0, "run every workload this many times with seeds seed, seed+1, ... and print each end-to-end metric's median and quartile spread")
	smoke := fs.Bool("smoke", false, "short windows and two suite passes: a quick end-to-end pass over every workload")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace}
	if *smoke {
		o.seconds, o.smoke = 3, true
	}

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer e.close()

	if *selfcheck {
		return runSelfcheck(e, o, stdout)
	}
	if *spread > 0 {
		return runSpread(e, o, *spread, stdout)
	}

	ok := true
	for _, name := range names {
		r, err := runCalibrated(e, name, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if o.trace {
			if err := runTraced(e, r, o, *out, stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		r.print(stdout, o.trace)
		line, err := resultLine(r, o.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, line)
		ok = ok && r.correct
	}
	if !ok {
		return 1
	}
	return 0
}
