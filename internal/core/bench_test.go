package planet_test

import (
	"fmt"
	"testing"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/regions"
)

// BenchmarkTracedCommit is the allocation rung of a traced commit: three
// regions on the virtual clock with memory WALs and planet.Config{Trace:
// true}, and per iteration one one-key add from one session, waited for.
// Every span of the transaction is recorded, the replicas' included, so
// allocs/op is what a commit and its trace cost the whole process. The
// trace store is filled first, so its records are being reused when the
// timer starts. verify.sh holds allocs/op to a ceiling.
func BenchmarkTracedCommit(b *testing.B) {
	const keys = 1000
	c, err := cluster.New(cluster.Config{Topology: regions.Three(), Seed: 1, WAL: true})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		c.Close()
		c.Quiesce(2 * time.Second)
	}()
	db, err := planet.Open(planet.Config{Cluster: c, Trace: true})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("k-%d", i)
		c.SeedInt(names[i], 0, 0, 1<<40)
	}
	s, err := db.Session(c.Regions()[0])
	if err != nil {
		b.Fatal(err)
	}
	commit := func(i int) {
		tx := s.Begin()
		tx.Add(names[i%keys], 1)
		h, err := tx.Commit(planet.CommitOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if o := h.Wait(); !o.Committed {
			b.Fatalf("commit %d: %+v", i, o)
		}
	}
	for i := 0; i < 2*keys; i++ {
		commit(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit(i)
	}
}
