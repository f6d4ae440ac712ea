package cluster_test

import (
	"testing"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/regions"
	"planet/internal/workload"
)

// BenchmarkSeedCluster measures seeding the way the experiments seed: a Buy
// template over 100 000 uniform keys, seeded into a five-region cluster.New.
// The key space enters the deployment's seed image as one range, so the cost
// does not grow with the key count. Only the seed call is timed; building
// and closing the cluster are not. verify.sh gates its allocs/op.
func BenchmarkSeedCluster(b *testing.B) {
	tmpl := workload.Buy{Products: workload.Uniform{N: 100_000}}
	b.ReportAllocs()
	b.StopTimer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		tmpl.Seed(c)
		b.StopTimer()
		c.Close()
	}
}

// BenchmarkOpenDeployment measures what every experiment arm pays before its
// first transaction: a five-region cluster.New on a virtual clock, a
// planet.Open over it and one session per region. Closing the cluster is not
// timed. verify.sh gates its allocs/op: state a deployment builds up front
// instead of on first use shows there.
func BenchmarkOpenDeployment(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.Config{Topology: regions.Five(), Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		db, err := planet.Open(planet.Config{Cluster: c})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range c.Regions() {
			if _, err := db.Session(r); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		c.Close()
		c.Quiesce(time.Second)
		b.StartTimer()
	}
}
