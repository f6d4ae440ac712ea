package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/experiments"
	"planet/internal/regions"
	"planet/internal/workload"
)

// The sim workloads run in this process on the virtual clock. No time passes
// while code runs there, so wall time is pure scheduler + protocol processor
// time. Virtual-time latencies are deterministic functions of the seed: they
// go into the fingerprint the output check compares, never into a
// performance metric.

const (
	openKeys       = 100_000
	openRate       = 500_000 // arrivals per emulated second
	openDur        = 40 * time.Millisecond
	openBlock      = 500 // ledger events per op
	openSampleTick = time.Millisecond
	openSetups     = 5
	suiteMinPasses = 2 // timed passes of sim_suite, however short the run
)

// openCluster builds the sim_openloop_commit stack: five regions, virtual
// time on the serialized scheduler (as the shipped -openloop profile),
// admission off, key space seeded. Its duration is one set-up sample.
func openCluster(seed int64, keys workload.KeyGen) (*cluster.Cluster, *planet.DB, float64, error) {
	start := time.Now()
	c, err := cluster.New(cluster.Config{
		Topology:      regions.Five(),
		Seed:          seed,
		VirtualTime:   true,
		CommitTimeout: 2 * time.Second,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	db, err := planet.Open(planet.Config{Cluster: c})
	if err != nil {
		closeCluster(c)
		return nil, nil, 0, err
	}
	workload.Buy{Products: keys}.Seed(c)
	return c, db, time.Since(start).Seconds(), nil
}

func closeCluster(c *cluster.Cluster) {
	c.Close()
	c.Quiesce(5 * time.Second)
}

// commitCurve samples a ledger's progress against the wall clock while a
// round runs, so the time each block of work took can be read off afterwards
// without touching the driver. Progress counts ledger events: an arrival
// injected is one, a transaction committed is another, so it advances through
// both the injection burst and the drain that follows it.
type commitCurve struct {
	at    []time.Duration // since the round's start
	count []uint64
}

// watch samples ledger every tick until stop is closed, then takes one last
// sample.
func (cc *commitCurve) watch(ledger *workload.Ledger, start time.Time, tick time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			cc.sample(ledger, start)
			return
		case <-t.C:
			cc.sample(ledger, start)
		}
	}
}

func (cc *commitCurve) sample(ledger *workload.Ledger, start time.Time) {
	f := ledger.Final()
	cc.at = append(cc.at, time.Since(start))
	cc.count = append(cc.count, f.Injected+f.Committed)
}

// blockTimes returns, for each full block of `block` events, the wall time
// between the event that opened it and the one that closed it, in ms. The
// crossing instants are interpolated between samples; the first block opens
// at the round's start.
func (cc *commitCurve) blockTimes(block uint64) []float64 {
	var out []float64
	prevCross := 0.0
	next := block
	prevAt, prevCount := 0.0, uint64(0)
	for i := range cc.at {
		at, count := float64(cc.at[i])/float64(time.Millisecond), cc.count[i]
		for count >= next {
			cross := at
			if count > prevCount {
				cross = prevAt + (at-prevAt)*float64(next-prevCount)/float64(count-prevCount)
			}
			out = append(out, cross-prevCross)
			prevCross = cross
			next += block
		}
		prevAt, prevCount = at, count
	}
	return out
}

// runSimOpenLoop is sim_openloop_commit: rounds of open-loop Poisson
// arrivals that all commit, repeated on one warm cluster until the time
// budget is spent.
func runSimOpenLoop(o runOpts) (*result, error) {
	res := newResult("sim_openloop_commit")
	keys := workload.Uniform{Prefix: "p-", N: openKeys}

	var c *cluster.Cluster
	var db *planet.DB
	for i := 0; i < openSetups; i++ {
		if c != nil {
			closeCluster(c)
		}
		// Collect the previous cluster first, so a set-up sample does not
		// pay for its predecessor's garbage.
		runtime.GC()
		var s float64
		var err error
		from := time.Now()
		c, db, s, err = openCluster(o.seed, keys)
		if err != nil {
			return nil, err
		}
		res.addSetup(s, from, time.Now())
	}
	defer closeCluster(c)

	var (
		blocks     []float64
		roundWalls []float64
		commits    uint64
		arrivals   uint64
		samples    int
		fp         = sha256.New()
		ms0, ms1   runtime.MemStats
		budget     = time.Duration(o.seconds * float64(time.Second))
		round      int
	)
	runRound := func(seed int64) time.Duration {
		ledger := &workload.Ledger{}
		curve := &commitCurve{}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		start := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			curve.watch(ledger, start, openSampleTick, stop)
		}()
		rep, err := workload.Open{
			Options: workload.Options{
				DB:       db,
				Template: workload.Buy{Products: keys},
				Seed:     seed,
				SkipSeed: true,
			},
			Phases:      []workload.RatePhase{{Rate: openRate, Dur: openDur}},
			Batch:       200 * time.Microsecond,
			Ledger:      ledger,
			SampleEvery: 4096,
		}.Run()
		wall := time.Since(start)
		close(stop)
		wg.Wait()
		if err != nil {
			// Conservation violations and undrained handles surface here.
			res.fail("round %d: %v", round, err)
		}
		for _, s := range ledger.Samples() {
			samples++
			if err := s.Check(); err != nil {
				res.fail("round %d: %v", round, err)
			}
		}
		fin := ledger.Final()
		if fin.InFlight != 0 {
			res.fail("round %d: %d in flight after drain", round, fin.InFlight)
		}
		res.attempted += int(fin.Injected)
		res.failed += int(fin.Injected - fin.Committed)
		arrivals += fin.Injected
		commits += fin.Committed
		if rep != nil {
			fmt.Fprintf(fp, "%d|%d|%d|%d|%d|", fin.Injected, fin.Committed, fin.Aborted, fin.Rejected, rep.Elapsed)
			fs := rep.Final.Summarize()
			fmt.Fprintf(fp, "%v|%v|", fs.P50, fs.P99)
		}
		blocks = append(blocks, curve.blockTimes(openBlock)...)
		return wall
	}

	// One untimed round lets the heap, the timer wheel and the flight table
	// reach their working size.
	runRound(o.seed + 7)
	blocks, commits, arrivals = nil, 0, 0
	res.attempted, res.failed = 0, 0
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := selfCPU()
	timedStart := time.Now()
	for round = 1; round == 1 || time.Since(timedStart) < budget; round++ {
		roundWalls = append(roundWalls, runRound(o.seed+7+int64(round)).Seconds())
	}
	timedWall := time.Since(timedStart)
	res.timed = []phase{{timedStart, timedStart.Add(timedWall)}}
	cpu1 := selfCPU()
	runtime.ReadMemStats(&ms1)
	if len(blocks) == 0 {
		return nil, fmt.Errorf("benchmark: sim_openloop_commit finished no block of %d events", openBlock)
	}
	sort.Float64s(blocks)

	var wallSum float64
	for _, w := range roundWalls {
		wallSum += w
	}
	res.e2e["ops_per_s"] = float64(commits+arrivals) / float64(openBlock) / wallSum
	res.e2e["op_p50_ms"] = percentile(blocks, 50)

	res.add("setup_s", median(res.setupS), "s", len(res.setupS))
	res.add("commits_per_s", float64(commits)/wallSum, "1/s", int(commits))
	res.add("wall_s", wallSum, "s", len(roundWalls))
	res.add("round_wall_s", median(roundWalls), "s", len(roundWalls))
	res.add("arrivals", float64(arrivals), "count", 0)
	res.add("block_p50_ms", percentile(blocks, 50), "ms", len(blocks))
	res.add("block_p99_ms", percentile(blocks, 99), "ms", len(blocks))
	res.add("ledger_samples_checked", float64(samples), "count", 0)
	res.add("sim.cpu_over_wall", float64(cpu1-cpu0)/float64(timedWall), "ratio", 0)
	res.fingerprint = fmt.Sprintf("%x", fp.Sum(nil)[:8])

	if commits > 0 {
		n := float64(commits)
		res.layers["go.allocs_per_commit"] = float64(ms1.Mallocs-ms0.Mallocs) / n
		res.layers["go.bytes_per_commit"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
		res.layers["go.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	}
	return res, nil
}

// suitePass runs every registry entry once in quick mode and returns each
// experiment's wall time (ms, registry order) and metric map.
func suitePass(seed int64) ([]float64, []map[string]float64, error) {
	walls := make([]float64, len(experiments.Registry))
	metrics := make([]map[string]float64, len(experiments.Registry))
	for i, e := range experiments.Registry {
		start := time.Now()
		r, err := e.Run(experiments.Config{Quick: true, Seed: seed})
		if err != nil {
			return nil, nil, fmt.Errorf("benchmark: experiment %s seed %d: %w", e.ID, seed, err)
		}
		walls[i] = float64(time.Since(start)) / float64(time.Millisecond)
		metrics[i] = r.Metrics
	}
	return walls, metrics, nil
}

// sameMetricMaps reports whether two passes produced bit-identical metrics,
// naming the first experiment that differs.
func sameMetricMaps(a, b []map[string]float64) (string, bool) {
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return experiments.Registry[i].ID, false
		}
		for k, va := range a[i] {
			vb, ok := b[i][k]
			if !ok || math.Float64bits(va) != math.Float64bits(vb) {
				return experiments.Registry[i].ID + "/" + k, false
			}
		}
	}
	return "", true
}

// fingerprintMetrics hashes metric maps in a fixed order.
func fingerprintMetrics(maps []map[string]float64) string {
	h := sha256.New()
	for i, m := range maps {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%d|%s|%x|", i, k, math.Float64bits(m[k]))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// runSimSuite is sim_suite: passes over the whole experiment registry in
// quick mode with seeds seed, seed+1, ... until the time budget is spent.
// The untimed first pass is the set-up (heap growth, lazy initialisation)
// and, run with the same seed as timed pass 1, the determinism check.
func runSimSuite(o runOpts) (*result, error) {
	res := newResult("sim_suite")
	nexp := len(experiments.Registry)

	start := time.Now()
	_, warmMetrics, err := suitePass(o.seed)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start).Seconds()
	res.addSetup(setup, start, time.Now())

	runtime.GC()
	var ops []float64
	perExp := make([][]float64, nexp)
	var passWalls []float64
	budget := time.Duration(o.seconds * float64(time.Second))
	cpu0 := selfCPU()
	timedStart := time.Now()
	for pass := 0; pass < suiteMinPasses || time.Since(timedStart) < budget; pass++ {
		walls, metrics, err := suitePass(o.seed + int64(pass))
		if err != nil {
			return nil, err
		}
		var sum float64
		for i, w := range walls {
			perExp[i] = append(perExp[i], w)
			sum += w
		}
		ops = append(ops, walls...)
		passWalls = append(passWalls, sum/1000)
		res.attempted += nexp
		if pass == 0 {
			if where, ok := sameMetricMaps(warmMetrics, metrics); !ok {
				res.fail("pass 1 rerun with seed %d is not bit-identical (first difference: %s)", o.seed, where)
				res.failed++
			}
			res.fingerprint = fingerprintMetrics(metrics)
		}
	}
	timedWall := time.Since(timedStart)
	res.timed = []phase{{timedStart, timedStart.Add(timedWall)}}
	cpu1 := selfCPU()
	sort.Float64s(ops)

	var wallSum float64
	for _, w := range passWalls {
		wallSum += w
	}
	res.e2e["ops_per_s"] = float64(len(ops)) / wallSum
	res.e2e["op_p50_ms"] = percentile(ops, 50)

	res.add("setup_s", setup, "s", 1)
	res.add("wall_s", wallSum, "s", len(passWalls))
	res.add("pass_wall_s", median(passWalls), "s", len(passWalls))
	res.add("experiments_per_s", float64(len(ops))/wallSum, "1/s", len(ops))
	res.add("experiment_p50_ms", percentile(ops, 50), "ms", len(ops))
	res.add("experiment_p99_ms", percentile(ops, 99), "ms", len(ops))
	cpuOverWall := float64(cpu1-cpu0) / float64(timedWall)
	res.add("vclock.world.cpu_over_wall", cpuOverWall, "ratio", 0)
	res.layers["vclock.world.cpu_over_wall"] = cpuOverWall
	for i, e := range experiments.Registry {
		res.layers["experiments."+e.ID+".wall_ms"] = median(perExp[i])
	}
	return res, nil
}

// experimentID is the registry id of the i-th experiment.
func experimentID(i int) string { return experiments.Registry[i].ID }
