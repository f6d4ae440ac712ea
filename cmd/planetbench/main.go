// Command planetbench regenerates the tables and figures of the PLANET
// evaluation (see DESIGN.md for the experiment index).
//
// Usage:
//
//	planetbench [-quick] [-seed N] [-scale F] [-metrics] all
//	planetbench [-quick] [-seed N] [-scale F] [-metrics] t1 f1 f5 ...
//	planetbench [-quick] [-seed N] -openloop
//	planetbench -list
//
// Latency columns are reported in WAN time: the experiments run on a
// time-compressed network emulation and measurements are rescaled back.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/experiments"
	"planet/internal/regions"
	"planet/internal/workload"
)

func main() { os.Exit(run()) }

// run holds main's body so profile-flushing defers execute before the
// process exits with a failure code (os.Exit skips defers).
func run() int {
	var (
		quick      = flag.Bool("quick", false, "run reduced workload sizes")
		seed       = flag.Int64("seed", 1, "random seed")
		scale      = flag.Float64("scale", 0, "WAN time-compression factor (0 = default)")
		list       = flag.Bool("list", false, "list experiments and exit")
		parallel   = flag.Bool("parallel", false, "sweep GOMAXPROCS (1/2/4/NumCPU) over the selected experiments, reporting wall time per setting and checking metrics stay bit-identical")
		openloop   = flag.Bool("openloop", false, "run the million-user open-loop traffic profile (surge schedule, Zipfian keys, adaptive admission) instead of experiments, checking conservation at every sample")
		showMetric = flag.Bool("metrics", false, "also print machine-readable metrics")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to `file`")
		memProfile = flag.String("memprofile", "", "write an allocation profile to `file` on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "planetbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "planetbench: cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "planetbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "planetbench: memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}

	if *openloop {
		return runOpenLoop(*quick, *seed, *scale)
	}

	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "planetbench: no experiments given (try 'all' or -list)")
		return 2
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = ids[:0]
		for _, e := range experiments.Registry {
			ids = append(ids, e.ID)
		}
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed, TimeScale: *scale}
	if *parallel {
		return runParallelSweep(cfg, ids)
	}
	failed := false
	for _, id := range ids {
		run, ok := experiments.Find(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "planetbench: unknown experiment %q (use -list)\n", id)
			failed = true
			continue
		}
		start := time.Now()
		res, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "planetbench: %s failed: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Println(res)
		if *showMetric {
			fmt.Print(res.FormatMetrics())
		}
		fmt.Printf("(%s ran in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		return 1
	}
	return 0
}

// runOpenLoop is the -openloop profile: the million-user open-loop traffic
// engine run end to end — a surge-shaped Poisson schedule with Zipfian key
// popularity, batched arrivals, the adaptive admission controller, and the
// conservation ledger checked at every sample. Quick mode scales the rates
// down tenfold (~130k arrivals); the full profile injects over a million.
func runOpenLoop(quick bool, seed int64, scale float64) int {
	c, err := cluster.New(cluster.Config{
		Topology:      regions.Three(),
		TimeScale:     scale, // 0 = cluster default
		Seed:          seed,
		CommitTimeout: 2 * time.Second,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "planetbench: %v\n", err)
		return 1
	}
	defer func() {
		c.Close()
		c.Quiesce(5 * time.Second)
	}()
	db, err := planet.Open(planet.Config{
		Cluster:   c,
		Admission: planet.AdmissionPolicy{MaxInFlight: 48},
		Adaptive:  planet.AdaptiveAdmission{Enabled: true},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "planetbench: %v\n", err)
		return 1
	}

	mul := 1.0
	if quick {
		mul = 0.1
	}
	ledger := &workload.Ledger{}
	start := time.Now()
	rep, err := workload.Open{
		Options: workload.Options{
			DB:       db,
			Template: workload.Buy{Products: workload.NewZipfFast("hot-", 1000, 1.2)},
			Seed:     seed + 7,
		},
		Phases: []workload.RatePhase{
			{Rate: 2e6 * mul, Dur: 200 * time.Millisecond}, // morning ramp
			{Rate: 5e6 * mul, Dur: 100 * time.Millisecond}, // surge peak
			{Rate: 0, Dur: 20 * time.Millisecond},          // trough
			{Rate: 2e6 * mul, Dur: 200 * time.Millisecond}, // evening tail
		},
		Batch:       200 * time.Microsecond,
		Ledger:      ledger,
		SampleEvery: 4096,
	}.Run()
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "planetbench: openloop: %v\n", err)
		return 1
	}
	for _, s := range ledger.Samples() {
		if err := s.Check(); err != nil {
			fmt.Fprintf(os.Stderr, "planetbench: openloop: %v\n", err)
			return 1
		}
	}
	final := ledger.Final()
	// Two rates over the same wall time: arrivals/s counts every arrival the
	// engine drew, injected and accounted for — most of them shed at
	// admission before any protocol work — and committed/s counts only the
	// transactions that ran the commit protocol to a commit.
	fmt.Printf("open-loop profile: %d arrivals in %s wall (%.0f arrivals/s, %.0f committed/s real time)\n",
		final.Injected, wall.Round(time.Millisecond),
		float64(final.Injected)/wall.Seconds(), float64(final.Committed)/wall.Seconds())
	fmt.Printf("  committed %d  aborted %d  rejected %d (%.1f%% shed)  in-flight %d\n",
		final.Committed, final.Aborted, final.Rejected,
		100*float64(final.Rejected)/float64(final.Injected), final.InFlight)
	fmt.Printf("  conservation held at all %d samples\n", len(ledger.Samples()))
	fmt.Printf("  commit rate %.3f  goodput %.1f/s (emulated)\n", rep.CommitRate(), rep.GoodputPerSec())
	for _, r := range c.Regions() {
		st := db.AdmissionState(r)
		fmt.Printf("  %-14s controller: epochs %d  window %d  min-likelihood %.3f\n",
			r, st.Epochs, st.MaxInFlight, st.MinLikelihood)
	}
	return 0
}

// runParallelSweep runs the selected experiments once per GOMAXPROCS setting
// (1, 2, 4, NumCPU — deduplicated) and verifies the determinism claim of the
// arm pool, the one level of parallelism (independent arms, each on its own
// virtual clock, across cores): every run's metrics are bit-identical to the
// GOMAXPROCS=1 run's. Beside
// the verdict it reports what the cores bought: each pass's wall time, its
// speedup over the GOMAXPROCS=1 pass, and process CPU time ÷ wall time (how
// many processors the pass kept busy).
func runParallelSweep(cfg experiments.Config, ids []string) int {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var gmps []int
	for _, n := range []int{1, 2, 4, runtime.NumCPU()} {
		dup := false
		for _, seen := range gmps {
			dup = dup || seen == n
		}
		if !dup {
			gmps = append(gmps, n)
		}
	}
	sort.Ints(gmps)

	// reference metrics from the first (GOMAXPROCS=1) pass, keyed by id.
	reference := make(map[string]map[string]float64)
	identical := true
	var wallOne time.Duration
	fmt.Printf("%-10s %12s %8s %9s   %s\n", "gomaxprocs", "wall", "speedup", "cpu/wall", "metrics vs GOMAXPROCS=1")
	for pass, gmp := range gmps {
		runtime.GOMAXPROCS(gmp)
		start, cpu0 := time.Now(), processCPU()
		diverged := []string{}
		for _, id := range ids {
			run, ok := experiments.Find(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "planetbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			res, err := run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "planetbench: %s at GOMAXPROCS=%d failed: %v\n", id, gmp, err)
				return 1
			}
			if pass == 0 {
				reference[id] = res.Metrics
				continue
			}
			if !sameMetrics(reference[id], res.Metrics) {
				diverged = append(diverged, id)
			}
		}
		wall, cpu := time.Since(start), processCPU()-cpu0
		verdict := "reference"
		if pass == 0 {
			wallOne = wall
		} else {
			verdict = "bit-identical"
			if len(diverged) > 0 {
				verdict = fmt.Sprintf("DIVERGED: %v", diverged)
				identical = false
			}
		}
		fmt.Printf("%-10d %12s %7.2fx %9.2f   %s\n", gmp, wall.Round(time.Millisecond),
			float64(wallOne)/float64(wall), float64(cpu)/float64(wall), verdict)
	}
	if !identical {
		fmt.Fprintln(os.Stderr, "planetbench: determinism violation — metrics changed with GOMAXPROCS")
		return 1
	}
	return 0
}

// processCPU is the user + system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sameMetrics reports whether two metric maps are bit-identical.
func sameMetrics(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || math.Float64bits(va) != math.Float64bits(vb) {
			return false
		}
	}
	return true
}
