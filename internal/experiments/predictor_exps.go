package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/predictor"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/vclock"
	"planet/internal/workload"
)

// F2Calibration reproduces the prediction-calibration figure: bucket the
// in-flight likelihood predictions and compare each bucket's mean prediction
// with the realized commit fraction. A good predictor sits on the diagonal.
func F2Calibration(cfg Config) (Result, error) {
	db, cleanup, err := openDB(cfg, cluster.Config{Seed: cfg.Seed + 21},
		planet.Config{Calibrate: true})
	if err != nil {
		return Result{}, err
	}
	defer cleanup()

	// Mixed contention: a handful of hot records generate genuine
	// conflicts; the cold mass commits. Warm-up traffic teaches the
	// predictor before the measured phase.
	tmpl := workload.ReadModifyWrite{
		Keys: workload.Hotspot{Prefix: "c-", HotKeys: 4, ColdKeys: 4000, HotProb: 0.35},
	}
	phases := []struct {
		name     string
		per      int
		skipSeed bool
	}{
		{"warm", cfg.pick(20, 8), false},
		{"measure", cfg.pick(60, 18), true},
	}
	for _, phase := range phases {
		_, err := workload.Closed{
			Options: workload.Options{
				DB: db, Template: tmpl, Seed: cfg.Seed + int64(len(phase.name)),
				SkipSeed: phase.skipSeed,
			},
			Clients: 20, PerClient: phase.per,
		}.Run()
		if err != nil {
			return Result{}, err
		}
	}

	calib := db.Calibration()
	mae := calib.MeanAbsoluteError()
	text := calib.String()
	return Result{
		Name:    "F2 likelihood calibration",
		Text:    text,
		Metrics: map[string]float64{"mean_abs_error": mae},
	}, nil
}

// F3Trajectory reproduces the likelihood-over-lifetime figure: the mean
// predicted commit likelihood after each received vote, separately for
// transactions that eventually committed and ones that aborted.
func F3Trajectory(cfg Config) (Result, error) {
	db, cleanup, err := openDB(cfg, cluster.Config{Seed: cfg.Seed + 23}, planet.Config{})
	if err != nil {
		return Result{}, err
	}
	defer cleanup()

	// Warm the predictor with background contention on hot keys.
	tmpl := workload.ReadModifyWrite{
		Keys: workload.Hotspot{Prefix: "t-", HotKeys: 2, ColdKeys: 2000, HotProb: 0.5},
	}
	tmpl.Seed(db.Cluster())
	if _, err := (workload.Closed{
		Options: workload.Options{DB: db, Template: tmpl, Seed: cfg.Seed, SkipSeed: true},
		Clients: 16, PerClient: cfg.pick(30, 10),
	}).Run(); err != nil {
		return Result{}, err
	}

	// Measured phase: sample (voteIndex, likelihood) trajectories.
	type agg struct {
		sum   []float64
		count []int
	}
	var mu sync.Mutex
	byOutcome := map[bool]*agg{true: {}, false: {}}
	observe := func(committed bool, traj []float64) {
		mu.Lock()
		defer mu.Unlock()
		a := byOutcome[committed]
		for i, v := range traj {
			if i >= len(a.sum) {
				a.sum = append(a.sum, 0)
				a.count = append(a.count, 0)
			}
			a.sum[i] += v
			a.count[i]++
		}
	}

	s, err := db.Session(regions.California)
	if err != nil {
		return Result{}, err
	}
	// Pace arrivals from this goroutine; each transaction's
	// build+commit+wait runs on a worker of its own (a child RNG per arrival
	// keeps key choices a pure function of the arrival index).
	rng := rand.New(rand.NewSource(cfg.Seed + 29))
	total := cfg.pick(300, 80)
	clk := db.Cluster().Clock()
	g := vclock.NewGroup(clk)
	var errMu sync.Mutex
	var runErr error
	for i := 0; i < total; i++ {
		childSeed := rng.Int63()
		g.Go(func() {
			crng := rand.New(rand.NewSource(childSeed))
			tx, err := tmpl.Build(s, crng)
			if err != nil {
				errMu.Lock()
				if runErr == nil {
					runErr = err
				}
				errMu.Unlock()
				return
			}
			var trajMu sync.Mutex
			var traj []float64
			h, err := tx.Commit(planet.CommitOptions{
				OnProgress: func(p planet.Progress) {
					trajMu.Lock()
					traj = append(traj, p.Likelihood)
					trajMu.Unlock()
				},
			})
			if err != nil {
				errMu.Lock()
				if runErr == nil {
					runErr = err
				}
				errMu.Unlock()
				return
			}
			o := h.Wait()
			trajMu.Lock()
			t := append([]float64(nil), traj...)
			trajMu.Unlock()
			observe(o.Committed, t)
		})
		// Pace arrivals so hot conflicts actually overlap.
		clk.Sleep(db.Cluster().ScaleDuration(5 * time.Millisecond))
	}
	g.Wait()
	if runErr != nil {
		return Result{}, runErr
	}

	var b strings.Builder
	out := make(map[string]float64)
	fmt.Fprintf(&b, "%-6s %-12s %-12s\n", "event", "committed", "aborted")
	maxLen := len(byOutcome[true].sum)
	if l := len(byOutcome[false].sum); l > maxLen {
		maxLen = l
	}
	mean := func(a *agg, i int) (float64, bool) {
		if i >= len(a.sum) || a.count[i] == 0 {
			return 0, false
		}
		return a.sum[i] / float64(a.count[i]), true
	}
	for i := 0; i < maxLen; i++ {
		cm, cok := mean(byOutcome[true], i)
		am, aok := mean(byOutcome[false], i)
		cs, as := "-", "-"
		if cok {
			cs = fmt.Sprintf("%.3f", cm)
		}
		if aok {
			as = fmt.Sprintf("%.3f", am)
		}
		fmt.Fprintf(&b, "%-6d %-12s %-12s\n", i+1, cs, as)
		if cok {
			out[fmt.Sprintf("committed_event_%02d", i+1)] = cm
		}
		if aok {
			out[fmt.Sprintf("aborted_event_%02d", i+1)] = am
		}
	}
	if last, ok := mean(byOutcome[true], maxLen-1); ok {
		out["committed_final"] = last
	}
	return Result{Name: "F3 likelihood trajectories", Text: b.String(), Metrics: out}, nil
}

// A2PredictorAblation compares the full likelihood model against a
// latency-only variant (no contention term) on a contended workload, and
// cross-checks the analytic model against Monte-Carlo simulation on
// synthetic in-flight states.
func A2PredictorAblation(cfg Config) (Result, error) {
	variants := []struct {
		name             string
		disableConflicts bool
	}{
		{"full-model", false},
		{"latency-only", true},
	}
	return sweep("A2 predictor ablation", "", len(variants)+1, func(i int) (arm, error) {
		if i == len(variants) {
			return monteCarloCheck(cfg), nil
		}
		v := variants[i]
		return closedArm(cfg, cluster.Config{Seed: cfg.Seed + 37}, planet.Config{
			Calibrate:           true,
			DisableConflictTerm: v.disableConflicts,
		}, workload.Closed{
			Options: workload.Options{
				Template: workload.ReadModifyWrite{
					Keys: workload.Hotspot{Prefix: "a-", HotKeys: 2, ColdKeys: 2000, HotProb: 0.5},
				},
				Seed:     cfg.Seed + 41,
				Deadline: time.Duration(float64(2*time.Second) * cfg.scale()), // Cluster.ScaleDuration, before there is a cluster
			},
			Clients: 20, PerClient: cfg.pick(50, 15),
		}, func(a *arm, db *planet.DB, _ *workload.Report) {
			mae := db.Calibration().MeanAbsoluteError()
			a.printf("%-14s mean abs calibration error = %.4f\n", v.name, mae)
			a.set(strings.ReplaceAll(v.name, "-", "_")+"_mae", mae)
		})
	})
}

// monteCarloCheck is A2's third arm: Monte-Carlo agreement with the analytic
// model on synthetic flights. The predictor's conflict and latency terms
// decay against its clock; the default (real) clock would make the decayed
// rates depend on wall time elapsed between ObserveVote and Likelihood, so
// pin a virtual clock — it never advances here, making every decay
// timestamp a pure function of the call sequence.
func monteCarloCheck(cfg Config) arm {
	topo := regions.Five()
	mcClk := vclock.NewVirtual()
	defer mcClk.Shutdown()
	pred := predictor.New(predictor.Config{
		Regions:      topo.Regions,
		FastQuorum:   4,
		UseConflicts: true,
		UseLatency:   true,
		Clock:        mcClk,
	})
	rng := rand.New(rand.NewSource(cfg.Seed + 43))
	for i := 0; i < 400; i++ {
		region := topo.Regions[rng.Intn(len(topo.Regions))]
		pred.ObserveVote("mc-key", region, rng.Float64() < 0.85,
			time.Duration(20+rng.Intn(160))*time.Millisecond)
	}
	maxDiff := 0.0
	flights := syntheticFlights(topo.Regions)
	for _, f := range flights {
		analytic := pred.Likelihood(f)
		mc := pred.MonteCarlo(f, cfg.pick(20000, 4000), rng)
		if diff := math.Abs(analytic - mc); diff > maxDiff {
			maxDiff = diff
		}
	}
	var a arm
	a.printf("analytic vs monte-carlo: max |diff| over %d flights = %.4f\n", len(flights), maxDiff)
	a.set("mc_max_abs_diff", maxDiff)
	return a
}

// syntheticFlights builds representative in-flight states for the
// analytic-vs-Monte-Carlo comparison.
func syntheticFlights(regionList []simnet.Region) []predictor.Flight {
	return []predictor.Flight{
		{ // fresh submission, one option
			Options:  []predictor.OptionFlight{{Key: "mc-key", Remaining: regionList}},
			Deadline: 800 * time.Millisecond,
		},
		{ // two accepts in, two replicas outstanding
			Options: []predictor.OptionFlight{{
				Key: "mc-key", Accepts: 2, Remaining: regionList[2:],
			}},
			Elapsed:  60 * time.Millisecond,
			Deadline: 800 * time.Millisecond,
		},
		{ // multi-option transaction with one learned option
			Options: []predictor.OptionFlight{
				{Key: "mc-key", Learned: 1},
				{Key: "mc-key", Accepts: 3, Remaining: regionList[3:]},
			},
			Elapsed:  120 * time.Millisecond,
			Deadline: 800 * time.Millisecond,
		},
		{ // deep into the deadline
			Options: []predictor.OptionFlight{{
				Key: "mc-key", Accepts: 1, Remaining: regionList[1:],
			}},
			Elapsed:  500 * time.Millisecond,
			Deadline: 800 * time.Millisecond,
		},
	}
}
