package mdcc_test

import (
	"fmt"
	"testing"
	"time"

	"planet/internal/cluster"
	"planet/internal/mdcc"
	"planet/internal/regions"
	"planet/internal/txn"
	"planet/internal/vclock"
)

// benchSink fires a clock event on decision, discarding progress.
type benchSink struct{ done *vclock.Event }

func (s *benchSink) Progress(mdcc.ProgressEvent) {}
func (s *benchSink) Decided(txn.ID, bool, error) { s.done.Fire() }

// pipeline runs n commits with at most window in flight: window workers on
// the cluster clock each submit one transaction, wait for its decision
// through the clock, and go again until n have been submitted.
func pipeline(b *testing.B, c *cluster.Cluster, n, window int, submit func(mdcc.ProgressSink) error) {
	clk := c.Clock()
	g := vclock.NewGroup(clk)
	next := 0
	for w := 0; w < window; w++ {
		g.Go(func() {
			for ; next < n; next++ {
				sink := &benchSink{done: clk.NewEvent()}
				if err := submit(sink); err != nil {
					b.Error(err)
					return
				}
				sink.done.Wait()
			}
		})
	}
	g.Wait()
}

// BenchmarkCommitThroughput measures end-to-end protocol throughput on the
// five-region emulated WAN with heavy time compression: pipelined
// commutative commits from one coordinator.
func BenchmarkCommitThroughput(b *testing.B) {
	c, err := cluster.New(cluster.Config{TimeScale: 0.002, Seed: 1, CommitTimeout: 300 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		c.Close()
		c.Quiesce(5 * time.Second)
	}()
	c.SeedInt("n", 0, -1<<60, 1<<60)
	coord := c.Coordinator(regions.California)

	ops := []txn.Op{{Kind: txn.OpAdd, Key: "n", Delta: 1}}

	b.ReportAllocs()
	b.ResetTimer()
	pipeline(b, c, b.N, 64, func(sink mdcc.ProgressSink) error {
		return coord.Submit(txn.NewID(), ops, mdcc.ModeFast, sink)
	})
}

// BenchmarkCommitLatencyDisjointKeys measures per-transaction decision
// latency (scaled) with no contention, one benchmark op per full commit.
func BenchmarkCommitLatencyDisjointKeys(b *testing.B) {
	c, err := cluster.New(cluster.Config{TimeScale: 0.002, Seed: 2, CommitTimeout: 300 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		c.Close()
		c.Quiesce(5 * time.Second)
	}()
	for i := 0; i < 128; i++ {
		c.SeedBytes(fmt.Sprintf("k-%d", i), []byte("v"))
	}
	coord := c.Coordinator(regions.Virginia)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := &benchSink{done: c.Clock().NewEvent()}
		if err := coord.Submit(txn.NewID(), []txn.Op{
			{Kind: txn.OpSet, Key: fmt.Sprintf("k-%d", i%128), Value: []byte("w"), ReadVersion: int64(i / 128)},
		}, mdcc.ModeFast, sink); err != nil {
			b.Fatal(err)
		}
		sink.done.Wait()
	}
}
