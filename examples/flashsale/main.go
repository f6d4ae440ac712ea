// Flashsale: admission control under a flash crowd. A single product page
// goes viral and an open-loop burst of read-modify-write transactions
// hammers its record from every region. Without admission control, almost
// all of that work is wasted on conflict aborts discovered only after a
// wide-area round trip. With likelihood-based admission, PLANET's predictor
// notices the record is hot and rejects doomed transactions instantly,
// giving users immediate feedback and keeping the commit rate of admitted
// work high.
//
// Run with:
//
//	go run ./examples/flashsale
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/metrics"
	"planet/internal/vclock"
)

const (
	burst     = 400
	arrivalHz = 1500.0 // offered load, transactions/second (emulator time)
)

func main() {
	for _, mode := range []struct {
		name      string
		admission planet.AdmissionPolicy
	}{
		{"without admission control", planet.AdmissionPolicy{}},
		{"with admission control", planet.AdmissionPolicy{MinLikelihood: 0.40, ProbeFraction: 0.05}},
	} {
		fmt.Printf("=== flash sale %s ===\n", mode.name)
		runSale(mode.admission)
		fmt.Println()
	}
}

func runSale(admission planet.AdmissionPolicy) {
	c, err := cluster.New(cluster.Config{TimeScale: 0.02, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	db, err := planet.Open(planet.Config{Cluster: c, Admission: admission})
	if err != nil {
		log.Fatal(err)
	}
	// The viral product: a single record everyone updates physically
	// (cart metadata, counters, "last buyer" field — not a commutative
	// quantity, so writes genuinely conflict).
	c.SeedBytes("product:viral", []byte("flash-sale-page"))

	// Arrivals are paced on the cluster's clock, so the burst is one
	// deterministic schedule in simulated time.
	clk := c.Clock()
	var (
		g                            = vclock.NewGroup(clk)
		mu                           sync.Mutex
		committed, aborted, rejected int
		feedback                     = metrics.NewHistogram() // time until the user learns anything definitive
	)
	rng := rand.New(rand.NewSource(99))
	regionList := c.Regions()
	next := clk.Now()
	for i := 0; i < burst; i++ {
		next = next.Add(time.Duration(rng.ExpFloat64() / arrivalHz * float64(time.Second)))
		if d := clk.Until(next); d > 0 {
			clk.Sleep(d)
		}
		s, err := db.Session(regionList[i%len(regionList)])
		if err != nil {
			log.Fatal(err)
		}
		tx := s.Begin()
		if _, err := tx.Read("product:viral"); err != nil {
			log.Fatal(err)
		}
		tx.Set("product:viral", []byte(fmt.Sprintf("buyer-%d", i)))
		start := clk.Now()
		h, err := tx.Commit(planet.CommitOptions{})
		if err != nil {
			log.Fatal(err)
		}
		g.Go(func() {
			o := h.Wait()
			mu.Lock()
			defer mu.Unlock()
			feedback.Observe(clk.Since(start))
			switch {
			case o.Rejected:
				rejected++
			case o.Committed:
				committed++
			default:
				aborted++
			}
		})
	}
	g.Wait()

	s := feedback.Summarize()
	fmt.Printf("offered: %d  committed: %d  aborted-after-roundtrip: %d  rejected-instantly: %d\n",
		burst, committed, aborted, rejected)
	decided := committed + aborted
	if decided > 0 {
		fmt.Printf("commit rate of admitted work: %.1f%%\n", 100*float64(committed)/float64(decided))
	}
	fmt.Printf("time-to-feedback: p50=%v p95=%v\n",
		s.P50.Round(time.Millisecond), s.P95.Round(time.Millisecond))
}
