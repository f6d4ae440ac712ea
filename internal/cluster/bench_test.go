package cluster_test

import (
	"testing"

	"planet/internal/cluster"
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
