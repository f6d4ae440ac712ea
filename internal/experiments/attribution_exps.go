package experiments

import (
	"fmt"
	"strings"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/workload"
)

// E3AttributionFeed measures what the attribution engine buys the
// predictor. Under heavy WAN jitter and a tight commit budget, a predictor
// without stage statistics keeps estimating near-certain commits for
// uncontended transactions — it has no reason not to, since conflicts are
// absent and no application deadline engages the latency term — while the
// real commit rate sags under timeout aborts. The attribution feed closes
// exactly that gap: the learned option-RPC and vote-return EWMA/jitter let
// the timeliness term discount in-flight likelihood by the probability the
// remaining votes still fit the budget. Calibration error (MAE between
// predicted likelihood and realized outcome) is the scorecard.
func E3AttributionFeed(cfg Config) (Result, error) {
	// The same time compression as E2, for the same reason.
	if cfg.TimeScale < 0.1 {
		cfg.TimeScale = 0.1
	}

	variants := []struct {
		name string
		feed bool
	}{
		{"no-feed", false},
		{"attribution-feed", true},
	}
	var dominant string // written by the feed arm alone, read after sweep returns
	res, err := sweep("E3 attribution feed vs predictor calibration (extension)", "", len(variants), func(i int) (arm, error) {
		v := variants[i]
		topo, err := jitterTopology(0.8)
		if err != nil {
			return arm{}, err
		}
		return closedArm(cfg, cluster.Config{
			Topology: topo, Seed: cfg.Seed + 211,
			// Tight budget: the jittered quorum tail must actually blow it,
			// or timeliness has nothing to predict. ~p75 of the quorum wait
			// under this topology's jitter.
			CommitTimeout: 240 * time.Millisecond,
		}, planet.Config{
			Calibrate:       true,
			Trace:           true,
			AttributionFeed: v.feed,
		}, workload.Closed{
			// Uncontended uniform keys: every miss is a timeout, not a
			// conflict, so calibration error isolates the timeliness term.
			Options: workload.Options{
				Template: workload.Buy{Products: workload.Uniform{Prefix: "at-", N: 4000}},
				Seed:     cfg.Seed + 223,
			},
			Clients: 16, PerClient: cfg.pick(60, 15),
		}, func(a *arm, db *planet.DB, rep *workload.Report) {
			mae := db.Calibration().MeanAbsoluteError()
			key := strings.ReplaceAll(v.name, "-", "_")
			a.set(key+"_mae", mae)
			a.set(key+"_commit_rate", rep.CommitRate())
			a.printf("%-18s mae=%.4f commit_rate=%.3f\n", v.name, mae, rep.CommitRate())
			if v.feed {
				// The last transactions' decide broadcasts and span reports
				// are still in flight when the driver returns; drain them, or
				// the table's counts depend on when the driver returned.
				db.Cluster().Quiesce(cfg.quiesceBudget())
				snap := db.Attribution().Snapshot()
				dominant = snap.Dominant
				a.printf("\nper-stage attribution (feed variant):\n%s", snap.Table())
			}
		})
	})
	if err != nil {
		return Result{}, err
	}
	if base := res.Metrics["no_feed_mae"]; base > 0 {
		res.Metrics["mae_improvement"] = 1 - res.Metrics["attribution_feed_mae"]/base
	}
	res.Text += fmt.Sprintf("\ncalibration MAE improvement with feed: %.1f%%\n",
		res.Metrics["mae_improvement"]*100)
	if dominant != "" {
		res.Text += fmt.Sprintf("dominant variance stage under jitter: %s\n", dominant)
	}
	return res, nil
}
