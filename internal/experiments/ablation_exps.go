package experiments

import (
	"fmt"
	"strings"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/mdcc"
	"planet/internal/regions"
	"planet/internal/workload"
)

// A1FastVsClassic reproduces the protocol-path ablation: fast path versus
// classic path across a contention sweep. The fast path wins on latency
// when conflicts are rare (one wide-area round trip, no master hop); as
// contention grows it pays fallback penalties while the master-sequenced
// classic path degrades more gracefully.
func A1FastVsClassic(cfg Config) (Result, error) {
	modes := []mdcc.Mode{mdcc.ModeFast, mdcc.ModeClassic}
	hotProbs := []float64{0.0, 0.3, 0.6, 0.9}
	perClient := cfg.pick(40, 12)
	scale := cfg.scale()

	header := fmt.Sprintf("%-8s %8s %10s %10s %10s %12s\n",
		"mode", "hotprob", "commit", "p50", "p95", "fallbacks")
	return sweep("A1 fast vs classic under conflicts", header, len(modes)*len(hotProbs), func(i int) (arm, error) {
		mode, hp := modes[i/len(hotProbs)], hotProbs[i%len(hotProbs)]
		ccfg := cluster.Config{Seed: cfg.Seed + 73}
		if mode == mdcc.ModeClassic {
			ccfg.MasterRegion = regions.Virginia
		}
		return closedArm(cfg, ccfg, planet.Config{Mode: mode}, workload.Closed{
			Options: workload.Options{
				Template: workload.ReadModifyWrite{
					Keys: workload.Hotspot{Prefix: "ab-", HotKeys: 4, ColdKeys: 2000, HotProb: hp},
				},
				Seed: cfg.Seed + 79,
			},
			Clients: 16, PerClient: perClient,
		}, func(a *arm, db *planet.DB, rep *workload.Report) {
			var fallbacks uint64
			for _, r := range db.Cluster().Regions() {
				fallbacks += db.Cluster().Coordinator(r).Fallbacks
			}
			f := rep.Final.Summarize()
			a.printf("%-8s %8.1f %10.3f %10s %10s %12d\n",
				mode, hp, rep.CommitRate(), wan(f.P50, scale), wan(f.P95, scale), fallbacks)
			key := fmt.Sprintf("%s_hp_%02.0f", mode, hp*10)
			a.set(key+"_commit_rate", rep.CommitRate())
			a.set(key+"_p50_ms", ms(f.P50, scale))
			a.set(key+"_fallbacks", float64(fallbacks))
		})
	})
}

// A3Commutative reproduces the demarcation ablation: on the same hot
// records, commutative bounded decrements (the paper's "buy" workload)
// commit where physical read-modify-writes conflict — until the integrity
// bound runs out, at which point bound violations are rejected up front.
func A3Commutative(cfg Config) (Result, error) {
	perClient := cfg.pick(40, 12)
	stock := int64(cfg.pick(100, 40))

	arms := []struct {
		name                  string
		clusterSeed, loadSeed int64
		tmpl                  workload.Template
	}{
		// Plentiful stock: commutativity should carry everything.
		{"commutative-buy", 83, 89, workload.Buy{
			Products: workload.Uniform{Prefix: "pr-", N: 2}, Stock: 1 << 30,
		}},
		{"physical-rmw", 83, 89, workload.ReadModifyWrite{
			Keys: workload.Uniform{Prefix: "pw-", N: 2},
		}},
		// Scarce stock: exactly Stock units can ever sell; demarcation must
		// cap committed buys at the bound with zero oversell.
		{"scarce", 97, 101, workload.Buy{
			Products: workload.Fixed{List: []string{"scarce"}}, Stock: stock,
		}},
	}
	return sweep("A3 commutative updates (demarcation)", "", len(arms), func(i int) (arm, error) {
		name := arms[i].name
		return closedArm(cfg, cluster.Config{Seed: cfg.Seed + arms[i].clusterSeed}, planet.Config{}, workload.Closed{
			Options: workload.Options{Template: arms[i].tmpl, Seed: cfg.Seed + arms[i].loadSeed},
			Clients: 16, PerClient: perClient,
		}, func(a *arm, db *planet.DB, rep *workload.Report) {
			if name != "scarce" {
				a.printf("%-18s commit-rate=%.3f committed=%d aborted=%d\n",
					name, rep.CommitRate(), rep.Committed.Load(), rep.Aborted.Load())
				a.set(strings.ReplaceAll(name, "-", "_")+"_commit_rate", rep.CommitRate())
				return
			}
			db.Cluster().Quiesce(cfg.quiesceBudget())
			var remaining int64 = -1
			if s, err := db.Session(regions.California); err == nil {
				if v, _, err := s.ReadInt("scarce"); err == nil {
					remaining = v
				}
			}
			sold := stock - remaining
			a.printf("scarce stock: initial=%d sold=%d remaining=%d committed=%d oversell=%v\n",
				stock, sold, remaining, rep.Committed.Load(), remaining < 0)
			a.set("scarce_sold", float64(sold))
			a.set("scarce_remaining", float64(remaining))
			a.set("scarce_committed", float64(rep.Committed.Load()))
		})
	})
}
