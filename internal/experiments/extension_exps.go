package experiments

import (
	"fmt"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/latency"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/workload"
)

// The paper's title condition — *unpredictable environments* — is latency
// variance and unreliability, not just distance. The two extension
// experiments below sweep exactly those knobs. They go beyond the
// reconstructed core evaluation and are labeled E-series in DESIGN.md.

// E1LossSweep measures protocol robustness as uniform message loss grows:
// commit rate, timeouts, and latency tails. Decide messages carry the full
// option set, so a replica that misses a proposal still applies a decision
// it hears; but a replica that misses the decide itself is never sent it
// again, so loss also leaves replicas diverged (EXPERIMENTS.md, E1). The
// sweep reports commit outcomes only, not replica state.
func E1LossSweep(cfg Config) (Result, error) {
	lossRates := []float64{0, 0.02, 0.05, 0.10}
	perClient := cfg.pick(40, 12)
	scale := cfg.scale()

	header := fmt.Sprintf("%-8s %8s %10s %10s %10s %12s %10s\n",
		"loss", "commit", "p50", "p95", "p99", "fallbacks", "timeouts")
	return sweep("E1 message-loss sweep (extension)", header, len(lossRates), func(i int) (arm, error) {
		loss := lossRates[i]
		return closedArm(cfg, cluster.Config{
			Seed: cfg.Seed + 103, LossRate: loss,
			CommitTimeout: 10 * time.Second,
		}, planet.Config{}, workload.Closed{
			Options: workload.Options{
				Template: workload.Buy{Products: workload.Uniform{Prefix: "ls-", N: 4000}},
				Seed:     cfg.Seed + 107,
			},
			Clients: 16, PerClient: perClient,
		}, func(a *arm, db *planet.DB, rep *workload.Report) {
			var fallbacks, timeouts uint64
			for _, r := range db.Cluster().Regions() {
				fallbacks += db.Cluster().Coordinator(r).Fallbacks
				timeouts += db.Cluster().Coordinator(r).Timeouts
			}
			f := rep.Final.Summarize()
			a.printf("%-8.2f %8.3f %10s %10s %10s %12d %10d\n",
				loss, rep.CommitRate(), wan(f.P50, scale), wan(f.P95, scale),
				wan(f.P99, scale), fallbacks, timeouts)
			key := fmt.Sprintf("loss_%03.0f", loss*100)
			a.set(key+"_commit_rate", rep.CommitRate())
			a.set(key+"_p50_ms", ms(f.P50, scale))
			a.set(key+"_p95_ms", ms(f.P95, scale))
			a.set(key+"_fallbacks", float64(fallbacks))
			a.set(key+"_timeouts", float64(timeouts))
		})
	})
}

// E2JitterSweep is the motivation experiment: as WAN latency variance
// grows (log-normal sigma sweep on the same medians), the final-commit
// tail inflates dramatically while speculative commits keep the
// user-perceived latency nearly flat — the unpredictability PLANET's
// programming model exists to absorb.
func E2JitterSweep(cfg Config) (Result, error) {
	sigmas := []float64{0.05, 0.18, 0.40, 0.80}
	perClient := cfg.pick(80, 15)

	// A gentler time compression than the default, from when real timers let
	// host scheduler noise into the tail. No host time enters a virtual-clock
	// measurement; it stays because the recorded numbers were taken at it.
	if cfg.TimeScale < 0.1 {
		cfg.TimeScale = 0.1
	}
	scale := cfg.scale()

	header := fmt.Sprintf("%-8s %10s %10s %10s %14s %10s\n",
		"sigma", "final p50", "final p95", "final p99", "perceived p50", "apology")
	return sweep("E2 latency-jitter sweep (extension)", header, len(sigmas), func(i int) (arm, error) {
		sigma := sigmas[i]
		topo, err := jitterTopology(sigma)
		if err != nil {
			return arm{}, err
		}
		return closedArm(cfg, cluster.Config{
			Topology: topo, Seed: cfg.Seed + 109,
			CommitTimeout: 30 * time.Second,
		}, planet.Config{}, workload.Closed{
			Options: workload.Options{
				Template:    workload.Buy{Products: workload.Uniform{Prefix: "js-", N: 4000}},
				SpeculateAt: 0.95,
				Seed:        cfg.Seed + 113,
			},
			Clients: 16, PerClient: perClient,
		}, func(a *arm, _ *planet.DB, rep *workload.Report) {
			f := rep.Final.Summarize()
			p := rep.Perceived.Summarize()
			a.printf("%-8.2f %10s %10s %10s %14s %10.3f\n",
				sigma, wan(f.P50, scale), wan(f.P95, scale), wan(f.P99, scale),
				wan(p.P50, scale), rep.ApologyRate())
			key := fmt.Sprintf("sigma_%03.0f", sigma*100)
			a.set(key+"_final_p50_ms", ms(f.P50, scale))
			a.set(key+"_final_p99_ms", ms(f.P99, scale))
			a.set(key+"_perceived_p50_ms", ms(p.P50, scale))
			a.set(key+"_apology_rate", rep.ApologyRate())
		})
	})
}

// jitterTopology builds the five-region matrix with the same median one-way
// delays as the standard preset but a much larger stochastic component
// (floor at 50% of the one-way time instead of 85%), so the sigma sweep
// actually moves the tail — modeling congested, bursty paths rather than
// quiet ones. Each arm builds its own.
func jitterTopology(sigma float64) (regions.Topology, error) {
	rs := regions.Five().Regions
	m := simnet.NewMatrix(nil)
	for i, a := range rs {
		for _, b := range rs[i+1:] {
			rtt, err := regions.RTT(a, b)
			if err != nil {
				return regions.Topology{}, err
			}
			oneWay := rtt / 2
			floor := time.Duration(float64(oneWay) * 0.5)
			m.SetLink(a, b, latency.NewLogNormal(floor, oneWay-floor, sigma))
		}
	}
	return regions.Topology{Regions: rs, Matrix: m}, nil
}
