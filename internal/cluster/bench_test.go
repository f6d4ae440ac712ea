package cluster_test

import (
	"fmt"
	"testing"

	"planet/internal/cluster"
)

// BenchmarkSeedCluster measures bulk seeding: 100 000 keys SeedIntAll'd into
// a five-region cluster.New. Only the seed call is timed; building and
// closing the cluster are not. verify.sh gates its allocs/op.
func BenchmarkSeedCluster(b *testing.B) {
	keys := make([]string, 100_000)
	for i := range keys {
		keys[i] = fmt.Sprintf("k-%d", i)
	}
	b.ReportAllocs()
	b.StopTimer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		c.SeedIntAll(keys, 0, 0, 1<<40)
		b.StopTimer()
		c.Close()
	}
}
