package experiments

import (
	"fmt"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/workload"
)

// F9OpenLoopSurge is the million-user stress scenario: an open-loop
// Poisson arrival process with a diurnal surge (baseline → 5× surge →
// recovery), Zipfian key popularity, and a replica scale-in/scale-out
// event in the middle of the surge (one replica crashes at peak load and
// rejoins during recovery). Two admission arms run the identical arrival
// schedule:
//
//   - static: F5's fixed policy (MinLikelihood 0.40, MaxInFlight 120),
//     tuned for the baseline rate and oblivious to the surge;
//   - adaptive: the same policy as the starting point, with the per-region
//     feedback controller adjusting the window, the likelihood bar, and
//     the speculation floor every epoch from observed goodput, abort rate,
//     and commit latency.
//
// The claim under test: when load and cluster health shift faster than any
// static tuning anticipates, the controller sheds the doomed fraction early
// and keeps the window matched to what the degraded cluster can decide —
// higher goodput at equal or lower p99 through the surge. The conservation
// ledger (injected == committed + aborted + rejected + in-flight) is
// checked at every sample in both arms.
func F9OpenLoopSurge(cfg Config) (Result, error) {
	base := float64(cfg.pick(800, 400))
	phaseDur := time.Duration(cfg.pick(2000, 600)) * time.Millisecond
	phases := []workload.RatePhase{
		{Rate: base, Dur: phaseDur},     // baseline
		{Rate: 5 * base, Dur: phaseDur}, // surge
		{Rate: base, Dur: phaseDur},     // recovery
	}
	static := planet.AdmissionPolicy{MinLikelihood: 0.40, MaxInFlight: 120}

	arms := []struct {
		name string
		pcfg planet.Config
	}{
		{"static", planet.Config{Admission: static}},
		{"adaptive", planet.Config{
			Admission: static,
			Adaptive: planet.AdaptiveAdmission{
				Enabled:   true,
				Epoch:     40 * time.Millisecond,
				TargetP99: 40 * time.Millisecond,
				AbortHigh: 0.12,
				AbortLow:  0.04,
			},
		}},
	}

	header := fmt.Sprintf("%-10s %10s %12s %10s %10s %10s %10s\n",
		"policy", "injected", "goodput/s", "commit", "rejected", "p50-final", "p99-final")
	return sweep("F9 open-loop surge: static vs adaptive admission", header, len(arms), func(i int) (arm, error) {
		name := arms[i].name
		db, teardown, err := openDB(cfg, cluster.Config{Seed: cfg.Seed + 83}, arms[i].pcfg)
		if err != nil {
			return arm{}, err
		}
		defer teardown()
		c, scale := db.Cluster(), cfg.scale()

		// Scale-in at peak surge, scale-out during recovery: Virginia's
		// replica crashes a third of the way into the surge window (the
		// fast path loses its fifth vote; every commit needs the remaining
		// four or the classic path) and rejoins halfway through recovery.
		// Arrivals originate from the other four regions — users in the
		// dead datacenter fail over — so the crash degrades the quorum,
		// not the driver.
		victim := regions.Virginia
		crashAt := phaseDur + phaseDur/3
		restartAt := 2*phaseDur + phaseDur/2
		var crashErr, restartErr error
		c.Clock().AfterFunc(crashAt, func() { crashErr = c.CrashReplica(victim) })
		c.Clock().AfterFunc(restartAt, func() { restartErr = c.RestartReplica(victim) })

		ledger := &workload.Ledger{}
		rep, err := workload.Open{
			Options: workload.Options{
				DB:       db,
				Template: workload.ReadModifyWrite{Keys: workload.NewZipf("f9-", 600, 1.2)},
				Regions:  []simnet.Region{regions.California, regions.Ireland, regions.Singapore, regions.Tokyo},
				Seed:     cfg.Seed + 89,
			},
			Phases:      phases,
			Batch:       time.Millisecond,
			Ledger:      ledger,
			SampleEvery: 256,
		}.Run()
		if err != nil {
			return arm{}, err
		}
		adm := db.AdmissionState(regions.California)
		if crashErr != nil || restartErr != nil {
			return arm{}, fmt.Errorf("f9: scale event failed: crash=%v restart=%v", crashErr, restartErr)
		}
		for _, s := range ledger.Samples() {
			if err := s.Check(); err != nil {
				return arm{}, fmt.Errorf("f9 %s arm: %w", name, err)
			}
		}
		final := ledger.Final()
		if final.InFlight != 0 {
			return arm{}, fmt.Errorf("f9 %s arm: %d transactions still in flight", name, final.InFlight)
		}

		f := rep.Final.Summarize()
		rejFrac := float64(rep.Rejected.Load()) / float64(rep.Total())
		var a arm
		a.printf("%-10s %10d %12.1f %10.3f %10.3f %10s %10s\n",
			name, final.Injected, rep.GoodputPerSec(), rep.CommitRate(), rejFrac,
			wan(f.P50, scale), wan(f.P99, scale))
		a.set(name+"_injected", float64(final.Injected))
		a.set(name+"_goodput", rep.GoodputPerSec())
		a.set(name+"_commit_rate", rep.CommitRate())
		a.set(name+"_reject_frac", rejFrac)
		a.set(name+"_p50_final_ms", ms(f.P50, scale))
		a.set(name+"_p95_final_ms", ms(f.P95, scale))
		a.set(name+"_p99_final_ms", ms(f.P99, scale))
		if name == "adaptive" {
			a.set("adaptive_epochs", float64(adm.Epochs))
			a.set("adaptive_final_max_inflight", float64(adm.MaxInFlight))
			a.set("adaptive_final_min_likelihood", adm.MinLikelihood)
		}
		return a, nil
	})
}
