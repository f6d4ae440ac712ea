package experiments

import (
	"fmt"
	"strings"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/workload"
)

// F4Speculation reproduces the speculation-threshold sweep: as the
// application raises its likelihood threshold, speculation fires later
// (higher perceived latency) but is wrong less often (lower apology rate).
// At every threshold the perceived latency stays well below the final
// geo-commit latency — PLANET's headline user-experience claim.
func F4Speculation(cfg Config) (Result, error) {
	thresholds := []float64{0.50, 0.80, 0.90, 0.95, 0.99}
	perClient := cfg.pick(50, 15)
	scale := cfg.scale()

	header := fmt.Sprintf("%-10s %12s %12s %10s %10s %10s\n",
		"threshold", "perceived", "final p50", "spec-rate", "apology", "commit")
	return sweep("F4 speculation threshold sweep", header, len(thresholds), func(i int) (arm, error) {
		th := thresholds[i]
		return closedArm(cfg, cluster.Config{Seed: cfg.Seed + 47}, planet.Config{}, workload.Closed{
			Options: workload.Options{
				Template: workload.ReadModifyWrite{
					Keys: workload.Hotspot{Prefix: "sp-", HotKeys: 8, ColdKeys: 4000, HotProb: 0.25},
				},
				SpeculateAt: th,
				Seed:        cfg.Seed + 53,
			},
			Clients: 20, PerClient: perClient,
		}, func(a *arm, _ *planet.DB, rep *workload.Report) {
			p := rep.Perceived.Summarize()
			f := rep.Final.Summarize()
			a.printf("%-10.2f %12s %12s %10.3f %10.3f %10.3f\n",
				th, wan(p.P50, scale), wan(f.P50, scale),
				rep.SpeculationRate(), rep.ApologyRate(), rep.CommitRate())
			key := fmt.Sprintf("th_%03.0f", th*100)
			a.set(key+"_perceived_p50_ms", ms(p.P50, scale))
			a.set(key+"_final_p50_ms", ms(f.P50, scale))
			a.set(key+"_spec_rate", rep.SpeculationRate())
			a.set(key+"_apology_rate", rep.ApologyRate())
		})
	})
}

// F5AdmissionLoad reproduces the admission-control headline figure: goodput
// (committed transactions per second) against offered open-loop load on a
// contended store, with and without likelihood-based admission control.
// Without admission, past saturation every extra transaction mostly burns
// quorum work before aborting; with admission the doomed ones are rejected
// up front and goodput holds.
func F5AdmissionLoad(cfg Config) (Result, error) {
	// Offered load in transactions/second of emulator time.
	rates := []float64{200, 600, 1200, 2400}
	count := cfg.pick(500, 150)

	policies := []struct {
		name      string
		admission planet.AdmissionPolicy
	}{
		{"no-admission", planet.AdmissionPolicy{}},
		{"admission", planet.AdmissionPolicy{MinLikelihood: 0.40, MaxInFlight: 120}},
	}

	header := fmt.Sprintf("%-14s %10s %12s %10s %10s %10s\n",
		"policy", "offered/s", "goodput/s", "commit", "rejected", "p50-final")
	return sweep("F5 admission control vs offered load", header, len(policies)*len(rates), func(i int) (arm, error) {
		pol, rate := policies[i/len(rates)], rates[i%len(rates)]
		db, teardown, err := openDB(cfg, cluster.Config{Seed: cfg.Seed + 59},
			planet.Config{Admission: pol.admission})
		if err != nil {
			return arm{}, err
		}
		defer teardown()
		rep, err := workload.Open{
			Options: workload.Options{
				DB: db,
				Template: workload.ReadModifyWrite{
					Keys: workload.Hotspot{Prefix: "ld-", HotKeys: 4, ColdKeys: 2000, HotProb: 0.6},
				},
				Seed: cfg.Seed + 61,
			},
			Rate: rate, Count: count,
		}.Run()
		if err != nil {
			return arm{}, err
		}
		var a arm
		rejFrac := float64(rep.Rejected.Load()) / float64(rep.Total())
		a.printf("%-14s %10.0f %12.1f %10.3f %10.3f %10s\n",
			pol.name, rate, rep.GoodputPerSec(), rep.CommitRate(), rejFrac,
			wan(rep.Final.Summarize().P50, cfg.scale()))
		key := fmt.Sprintf("%s_rate_%04.0f", strings.ReplaceAll(pol.name, "-", "_"), rate)
		a.set(key+"_goodput", rep.GoodputPerSec())
		a.set(key+"_commit_rate", rep.CommitRate())
		a.set(key+"_reject_frac", rejFrac)
		return a, nil
	})
}

// F6Contention reproduces the contention sweep: commit rate and goodput as
// the hotspot shrinks (fewer hot records = more contention), with and
// without admission control.
func F6Contention(cfg Config) (Result, error) {
	hotSizes := []int{256, 64, 16, 4, 1}
	perClient := cfg.pick(40, 12)

	policies := []struct {
		name      string
		admission planet.AdmissionPolicy
	}{
		{"no-admission", planet.AdmissionPolicy{}},
		{"admission", planet.AdmissionPolicy{MinLikelihood: 0.40}},
	}

	header := fmt.Sprintf("%-14s %8s %10s %12s %10s %10s\n",
		"policy", "hotkeys", "commit", "goodput/s", "rejected", "aborted")
	return sweep("F6 contention sweep", header, len(policies)*len(hotSizes), func(i int) (arm, error) {
		pol, hot := policies[i/len(hotSizes)], hotSizes[i%len(hotSizes)]
		return closedArm(cfg, cluster.Config{Seed: cfg.Seed + 67}, planet.Config{Admission: pol.admission}, workload.Closed{
			Options: workload.Options{
				Template: workload.ReadModifyWrite{
					Keys: workload.Hotspot{Prefix: "ct-", HotKeys: hot, ColdKeys: 2000, HotProb: 0.8},
				},
				Seed: cfg.Seed + 71,
			},
			Clients: 24, PerClient: perClient,
		}, func(a *arm, _ *planet.DB, rep *workload.Report) {
			a.printf("%-14s %8d %10.3f %12.1f %10d %10d\n",
				pol.name, hot, rep.CommitRate(), rep.GoodputPerSec(),
				rep.Rejected.Load(), rep.Aborted.Load())
			key := fmt.Sprintf("%s_hot_%03d", strings.ReplaceAll(pol.name, "-", "_"), hot)
			a.set(key+"_commit_rate", rep.CommitRate())
			a.set(key+"_goodput", rep.GoodputPerSec())
			a.set(key+"_aborted", float64(rep.Aborted.Load()))
		})
	})
}
