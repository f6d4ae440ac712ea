// Geodashboard: a text-mode rendering of what PLANET's progress callbacks
// make possible in a UI. One transaction is launched from each of the five
// datacenters against a shared record set, and every protocol event is
// printed as a timeline row: the stage, the live commit likelihood, and
// which replicas have voted. This is the information a traditional blocking
// commit API hides until the very end.
//
// Run with:
//
//	go run ./examples/geodashboard
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/simnet"
	"planet/internal/txn"
)

// event is one dashboard row.
type event struct {
	at     time.Duration
	origin simnet.Region
	line   string
}

func main() {
	c, err := cluster.New(cluster.Config{TimeScale: 0.05, Seed: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	db, err := planet.Open(planet.Config{Cluster: c})
	if err != nil {
		log.Fatal(err)
	}

	for i := 0; i < 8; i++ {
		c.SeedInt(fmt.Sprintf("counter-%d", i), 0, -1<<40, 1<<40)
	}

	// Events are stamped on the cluster's clock: simulated (scaled) time,
	// exact to the event.
	var (
		mu     sync.Mutex
		events []event
		clk    = c.Clock()
		start  = clk.Now()
		hs     []*planet.Handle
	)
	record := func(origin simnet.Region, line string) {
		mu.Lock()
		events = append(events, event{clk.Since(start), origin, line})
		mu.Unlock()
	}

	for i, origin := range c.Regions() {
		s, err := db.Session(origin)
		if err != nil {
			log.Fatal(err)
		}
		tx := s.Begin()
		tx.Add(fmt.Sprintf("counter-%d", i), 1)
		tx.Add(fmt.Sprintf("counter-%d", i+1), -1)
		h, err := tx.Commit(planet.CommitOptions{
			SpeculateAt: 0.95,
			OnAccept: func(p planet.Progress) {
				record(origin, fmt.Sprintf("accepted              likelihood=%.3f", p.Likelihood))
			},
			OnProgress: func(p planet.Progress) {
				record(origin, fmt.Sprintf("%-10s %s likelihood=%.3f",
					p.Stage, voteBar(p), p.Likelihood))
			},
			OnSpeculative: func(p planet.Progress) {
				record(origin, fmt.Sprintf("SPECULATIVE ✦         likelihood=%.3f", p.Likelihood))
			},
			OnFinal: func(o txn.Outcome) {
				verdict := "COMMITTED ✓"
				if !o.Committed {
					verdict = fmt.Sprintf("ABORTED ✗ (%v)", o.Err)
				}
				record(origin, fmt.Sprintf("%s after %v", verdict, o.Duration().Round(time.Millisecond)))
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		hs = append(hs, h)
	}
	for _, h := range hs {
		h.Wait()
	}

	mu.Lock()
	defer mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	fmt.Printf("%-10s %-14s %s\n", "t", "origin", "event")
	for _, e := range events {
		fmt.Printf("%-10v %-14s %s\n", e.at.Round(100*time.Microsecond), e.origin, e.line)
	}
}

// voteBar renders vote progress as a compact gauge like [####......].
func voteBar(p planet.Progress) string {
	if p.VotesExpected == 0 {
		return strings.Repeat(".", 10)
	}
	filled := p.VotesReceived * 10 / p.VotesExpected
	return "[" + strings.Repeat("#", filled) + strings.Repeat(".", 10-filled) + "]"
}
