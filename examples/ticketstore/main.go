// Ticketstore: the use case PLANET's introduction motivates. A concert has
// a fixed number of tickets replicated across five datacenters; buyers
// worldwide race for them. Purchases are commutative bounded decrements,
// so concurrent sales commit without conflicting until stock runs out —
// and the integrity bound guarantees the venue is never oversold.
//
// Buyers are shown an optimistic confirmation as soon as the commit
// likelihood crosses 95% (speculative commit); the rare wrong guess gets
// the guaranteed apology, which this demo surfaces as a refund email.
//
// Run with:
//
//	go run ./examples/ticketstore
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync/atomic"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/txn"
	"planet/internal/vclock"
)

const (
	tickets = 120
	buyers  = 40
	// Each buyer attempts this many purchases (1-2 seats each).
	attemptsPerBuyer = 5
)

func main() {
	c, err := cluster.New(cluster.Config{TimeScale: 0.02, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	db, err := planet.Open(planet.Config{Cluster: c})
	if err != nil {
		log.Fatal(err)
	}
	// The stock record: bound [0, tickets] enforces "never oversell".
	c.SeedInt("concert", tickets, 0, tickets)

	var (
		confirmed  atomic.Int64 // optimistic confirmations shown
		sold       atomic.Int64 // seats actually committed
		soldOut    atomic.Int64 // buyers turned away
		apologies  atomic.Int64 // wrong optimistic confirmations
		perceived  atomic.Int64 // summed perceived latency (ns)
		finalSum   atomic.Int64 // summed final latency (ns)
		regionList = c.Regions()
	)

	// Buyers run on the cluster's clock, so the whole sale is one
	// deterministic schedule in simulated time.
	clk := c.Clock()
	g := vclock.NewGroup(clk)
	for i := 0; i < buyers; i++ {
		region := regionList[i%len(regionList)]
		rng := rand.New(rand.NewSource(int64(100 + i)))
		g.Go(func() {
			buyer := i
			s, err := db.Session(region)
			if err != nil {
				log.Print(err)
				return
			}
			for a := 0; a < attemptsPerBuyer; a++ {
				seats := int64(1 + rng.Intn(2))
				start := clk.Now()
				tx := s.Begin()
				tx.Add("concert", -seats)
				var wasConfirmed atomic.Bool
				h, err := tx.Commit(planet.CommitOptions{
					SpeculateAt: 0.95,
					OnSpeculative: func(p planet.Progress) {
						// Show the user "tickets secured!" now.
						wasConfirmed.Store(true)
						confirmed.Add(1)
						perceived.Add(int64(clk.Since(start)))
					},
					OnApology: func(o txn.Outcome) {
						apologies.Add(1)
						fmt.Printf("  → apology email to buyer %d (%s): your %d seat(s) fell through\n",
							buyer, region, seats)
					},
				})
				if err != nil {
					log.Print(err)
					return
				}
				o := h.Wait()
				finalSum.Add(int64(o.Duration()))
				if !wasConfirmed.Load() {
					perceived.Add(int64(o.Duration()))
				}
				if o.Committed {
					sold.Add(seats)
				} else {
					soldOut.Add(1)
				}
			}
		})
	}
	g.Wait()
	c.Quiesce(5 * time.Second)

	attempts := int64(buyers * attemptsPerBuyer)
	fmt.Printf("\n--- box office report ---\n")
	fmt.Printf("initial stock:          %d\n", tickets)
	fmt.Printf("purchase attempts:      %d\n", attempts)
	fmt.Printf("seats sold:             %d\n", sold.Load())
	fmt.Printf("attempts denied:        %d\n", soldOut.Load())
	fmt.Printf("optimistic confirms:    %d (apologies: %d)\n", confirmed.Load(), apologies.Load())
	fmt.Printf("mean perceived latency: %v\n", time.Duration(perceived.Load()/attempts).Round(time.Millisecond))
	fmt.Printf("mean final latency:     %v\n", time.Duration(finalSum.Load()/attempts).Round(time.Millisecond))

	// The invariant the bound protects: remaining = initial - sold, >= 0,
	// identical at every replica.
	for _, r := range regionList {
		s, err := db.Session(r)
		if err != nil {
			log.Fatal(err)
		}
		remaining, _, err := s.ReadInt("concert")
		if err != nil {
			log.Fatal(err)
		}
		if remaining < 0 {
			log.Fatalf("OVERSOLD at %s: %d", r, remaining)
		}
		if remaining+sold.Load() != tickets {
			log.Fatalf("stock mismatch at %s: %d remaining + %d sold != %d",
				r, remaining, sold.Load(), tickets)
		}
		fmt.Printf("replica %-14s: %d seats remaining ✓\n", r, remaining)
	}
}
