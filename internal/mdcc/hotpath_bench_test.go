package mdcc_test

// Hot-path microbenchmarks for the commit pipeline, run with -benchmem.
// docs/bench/BENCH_pr5.json records their before/after numbers for the
// batched-routing and allocation-diet work; verify.sh gates allocs/op
// regressions on BenchmarkCoordinatorCommit.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"planet/internal/cluster"
	"planet/internal/latency"
	"planet/internal/mdcc"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/txn"
)

// BenchmarkReplicaPrepare measures one replica's fast-path prepare cycle:
// a multi-option proposal validated and voted on, then decided. The vote
// reply fan-out rides the emulated network, so message-count reductions
// (one vote batch instead of one vote per option) show up here directly.
func BenchmarkReplicaPrepare(b *testing.B) {
	m := simnet.NewMatrix(latency.Constant(time.Microsecond))
	net, err := simnet.New(simnet.Config{Latency: m, TimeScale: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()

	self := simnet.Addr{Region: "r1", Name: "replica"}
	rep := mdcc.NewReplica(mdcc.ReplicaConfig{Net: net, Addr: self, Peers: []simnet.Addr{self}})
	coord := simnet.Addr{Region: "r1", Name: "coord"}
	net.Register(coord, func(simnet.Message) {})

	const nOps = 4
	ops := make([]txn.Op, nOps)
	for i := range ops {
		key := fmt.Sprintf("k-%d", i)
		rep.SeedInt(key, 0, -1<<60, 1<<60)
		ops[i] = txn.Op{Kind: txn.OpAdd, Key: key, Delta: 1}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := txn.NewID()
		rep.HandlePropose(id, coord, ops)
		rep.HandleDecide(id, true, ops)
	}
	b.StopTimer()
	net.Quiesce(time.Second)
}

// BenchmarkCoordinatorCommit measures the end-to-end commit path on the
// five-region cluster — submit, option routing, votes, decision fan-out —
// with pipelined commutative transactions. It also reports messages per
// commit, the headline number for the batching work.
func BenchmarkCoordinatorCommit(b *testing.B) {
	c, err := cluster.New(cluster.Config{TimeScale: 0.002, Seed: 5, CommitTimeout: 300 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		c.Close()
		c.Quiesce(5 * time.Second)
	}()
	const nOps = 4
	ops := make([]txn.Op, nOps)
	for i := range ops {
		key := fmt.Sprintf("n-%d", i)
		c.SeedInt(key, 0, -1<<60, 1<<60)
		ops[i] = txn.Op{Kind: txn.OpAdd, Key: key, Delta: 1}
	}
	coord := c.Coordinator(regions.California)

	const window = 64
	sem := make(chan struct{}, window)
	var wg sync.WaitGroup

	sentBefore := c.Net.Sent.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sem <- struct{}{}
		sink := &benchSink{done: make(chan struct{})}
		if err := coord.Submit(txn.NewID(), ops, mdcc.ModeFast, sink); err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-sink.done
			<-sem
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(c.Net.Sent.Load()-sentBefore)/float64(b.N), "msgs/commit")
}
