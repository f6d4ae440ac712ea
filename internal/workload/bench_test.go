package workload

import (
	"runtime"
	"testing"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/regions"
)

// BenchmarkOpenLoopCommit is the allocation rung of the simulated commit
// path: five regions on the virtual clock, admission off, Buy over 10 000
// uniform keys, and per iteration one open-loop round of 2 000 arrivals that
// are all in flight at once and all commit. allocs/commit is every heap
// allocation of the process over the timed rounds — scheduler, simnet,
// coordinator, replicas, handle, driver — per committed transaction;
// verify.sh holds it to a ceiling.
func BenchmarkOpenLoopCommit(b *testing.B) {
	const arrivals = 2000
	c, err := cluster.New(cluster.Config{
		Topology:      regions.Five(),
		Seed:          1,
		CommitTimeout: 2 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		c.Close()
		c.Quiesce(2 * time.Second)
	}()
	db, err := planet.Open(planet.Config{Cluster: c})
	if err != nil {
		b.Fatal(err)
	}
	tmpl := Buy{Products: Uniform{Prefix: "p-", N: 10000}}
	tmpl.Seed(c)
	round := func(seed int64) uint64 {
		rep, err := Open{
			Options: Options{DB: db, Template: tmpl, Seed: seed, SkipSeed: true},
			Rate:    500_000,
			Count:   arrivals,
			Batch:   200 * time.Microsecond,
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
		if n := rep.Committed.Load(); n != arrivals {
			b.Fatalf("%d of %d arrivals committed", n, arrivals)
		}
		return arrivals
	}
	round(0) // warm: record store, pools, run queue and timer heap at their working size

	var before, after runtime.MemStats
	var commits uint64
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commits += round(int64(i + 1))
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(commits), "allocs/commit")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(commits), "B/commit")
}
