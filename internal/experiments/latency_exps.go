package experiments

import (
	"fmt"
	"strings"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/mdcc"
	"planet/internal/metrics"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/workload"
)

// T1RTTMatrix reproduces the evaluation's calibration table: the round-trip
// time matrix between the five datacenters, as measured by probing the
// emulated links.
func T1RTTMatrix(cfg Config) (Result, error) {
	topo := regions.Five()
	net, err := simnet.New(simnet.Config{Latency: topo.Matrix, Seed: cfg.Seed + 3})
	if err != nil {
		return Result{}, err
	}
	probes := cfg.pick(400, 100)

	var b strings.Builder
	metricsOut := make(map[string]float64)
	fmt.Fprintf(&b, "median RTT (ms), %d probes per directed pair\n", probes)
	fmt.Fprintf(&b, "%-14s", "")
	for _, to := range topo.Regions {
		fmt.Fprintf(&b, "%14s", to)
	}
	b.WriteByte('\n')
	for _, from := range topo.Regions {
		fmt.Fprintf(&b, "%-14s", from)
		for _, to := range topo.Regions {
			if from == to {
				fmt.Fprintf(&b, "%14s", "-")
				continue
			}
			rec := metrics.NewHistogram()
			for i := 0; i < probes; i++ {
				rtt := net.SampleDelay(from, to) + net.SampleDelay(to, from)
				rec.Observe(rtt)
			}
			med := rec.Quantile(0.5)
			fmt.Fprintf(&b, "%14s", med.Round(time.Millisecond))
			metricsOut[fmt.Sprintf("rtt_ms_%s_%s", from, to)] = float64(med) / float64(time.Millisecond)
		}
		b.WriteByte('\n')
	}
	return Result{Name: "T1 RTT matrix", Text: b.String(), Metrics: metricsOut}, nil
}

// F1CommitCDF reproduces the commit-latency distribution figure: final
// commit latency per origin datacenter for the fast path versus the classic
// path (master in Virginia), on an uncontended uniform workload.
func F1CommitCDF(cfg Config) (Result, error) {
	perClient := cfg.pick(40, 10)
	scale := cfg.scale()
	modes := []mdcc.Mode{mdcc.ModeFast, mdcc.ModeClassic}
	return sweep("F1 commit-latency CDF (fast vs classic)", "", len(modes), func(i int) (arm, error) {
		mode := modes[i]
		ccfg := cluster.Config{Seed: cfg.Seed + 5}
		if mode == mdcc.ModeClassic {
			ccfg.MasterRegion = regions.Virginia
		}
		db, teardown, err := openDB(cfg, ccfg, planet.Config{Mode: mode})
		if err != nil {
			return arm{}, err
		}
		defer teardown()

		var a arm
		// One driver per origin region so latencies stay attributable.
		var californiaFinal *metrics.Histogram
		for _, origin := range db.Cluster().Regions() {
			rep, err := workload.Closed{
				Options: workload.Options{
					DB: db,
					Template: workload.ReadModifyWrite{
						Keys: workload.Uniform{Prefix: "u-", N: 5000}, NKeys: 1,
					},
					Regions: []simnet.Region{origin},
					Seed:    cfg.Seed + int64(len(origin)),
				},
				Clients: 4, PerClient: perClient,
			}.Run()
			if err != nil {
				return arm{}, err
			}
			if origin == regions.California {
				californiaFinal = rep.Final
			}
			s := rep.Final.Summarize()
			a.printf("%-8s origin=%-14s n=%4d  p50=%8s  p95=%8s  p99=%8s\n",
				mode, origin, s.Count, wan(s.P50, scale), wan(s.P95, scale), wan(s.P99, scale))
			a.set(fmt.Sprintf("%s_%s_p50_ms", mode, origin), ms(s.P50, scale))
			a.set(fmt.Sprintf("%s_%s_p95_ms", mode, origin), ms(s.P95, scale))
		}
		// The figure itself is a CDF; print deciles for the California
		// origin so the curve can be plotted directly.
		if californiaFinal != nil {
			a.printf("%-8s origin=us-west CDF:", mode)
			for _, p := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99} {
				a.printf(" p%02.0f=%s", p*100, wan(californiaFinal.Quantile(p), scale))
			}
			a.printf("\n")
		}
		return a, nil
	})
}

// F7Stages reproduces the stage-latency table: per origin datacenter, the
// latency from submission to acceptance, to speculative commit, and to the
// final decision.
func F7Stages(cfg Config) (Result, error) {
	db, cleanup, err := openDB(cfg, cluster.Config{Seed: cfg.Seed + 7}, planet.Config{})
	if err != nil {
		return Result{}, err
	}
	defer cleanup()
	scale := db.Cluster().TimeScale()
	perClient := cfg.pick(40, 12)

	var b strings.Builder
	out := make(map[string]float64)
	fmt.Fprintf(&b, "%-14s %10s %12s %10s %10s %10s\n",
		"origin", "accept p50", "speculative", "final p50", "final p95", "final p99")
	for _, origin := range db.Cluster().Regions() {
		rep, err := workload.Closed{
			Options: workload.Options{
				DB: db,
				Template: workload.ReadModifyWrite{
					Keys: workload.Uniform{Prefix: "s-", N: 5000}, NKeys: 1,
				},
				Regions:     []simnet.Region{origin},
				SpeculateAt: 0.90,
				Seed:        cfg.Seed + 31,
			},
			Clients: 4, PerClient: perClient,
		}.Run()
		if err != nil {
			return Result{}, err
		}
		acc := rep.Accept.Summarize()
		spec := rep.Speculative.Summarize()
		fin := rep.Final.Summarize()
		fmt.Fprintf(&b, "%-14s %10s %12s %10s %10s %10s\n", origin,
			wan(acc.P50, scale), wan(spec.P50, scale),
			wan(fin.P50, scale), wan(fin.P95, scale), wan(fin.P99, scale))
		out[fmt.Sprintf("%s_accept_p50_ms", origin)] = ms(acc.P50, scale)
		out[fmt.Sprintf("%s_spec_p50_ms", origin)] = ms(spec.P50, scale)
		out[fmt.Sprintf("%s_final_p50_ms", origin)] = ms(fin.P50, scale)
	}
	return Result{Name: "F7 stage latencies", Text: b.String(), Metrics: out}, nil
}

// F8Scale reproduces the datacenter-count scaling figure: commit latency as
// the deployment grows from three to seven regions (quorums widen).
func F8Scale(cfg Config) (Result, error) {
	topos := []struct {
		name string
		topo func() regions.Topology
	}{
		{"3-dc", regions.Three},
		{"5-dc", regions.Five},
		{"7-dc", regions.Seven},
	}
	perClient := cfg.pick(40, 12)
	scale := cfg.scale()

	header := fmt.Sprintf("%-6s %3s %6s %6s %10s %10s %12s\n",
		"topo", "n", "cq", "fq", "p50", "p95", "goodput/s")
	return sweep("F8 datacenter scaling", header, len(topos), func(i int) (arm, error) {
		name, topo := topos[i].name, topos[i].topo()
		return closedArm(cfg, cluster.Config{Topology: topo, Seed: cfg.Seed + 11}, planet.Config{}, workload.Closed{
			Options: workload.Options{
				Template: workload.ReadModifyWrite{
					Keys: workload.Uniform{Prefix: "sc-", N: 5000}, NKeys: 1,
				},
				Regions: []simnet.Region{regions.California},
				Seed:    cfg.Seed + 13,
			},
			Clients: 4, PerClient: perClient,
		}, func(a *arm, _ *planet.DB, rep *workload.Report) {
			n := len(topo.Regions)
			s := rep.Final.Summarize()
			a.printf("%-6s %3d %6d %6d %10s %10s %12.1f\n",
				name, n, mdcc.ClassicQuorum(n), mdcc.FastQuorum(n),
				wan(s.P50, scale), wan(s.P95, scale), rep.GoodputPerSec())
			a.set(name+"_p50_ms", ms(s.P50, scale))
			a.set(name+"_p95_ms", ms(s.P95, scale))
		})
	})
}
