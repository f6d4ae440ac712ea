// Command planetdemo walks one transaction through the PLANET stack and
// narrates every stage on stdout: submission, per-replica votes with the
// live commit likelihood, the speculative-commit point, and the final
// geo-replicated decision. Flags choose the origin region, the protocol
// path, and artificial contention so the abort/apology path can be watched
// as well.
//
// Usage:
//
//	planetdemo [-region us-west] [-mode fast|classic] [-contend] [-threshold 0.95]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/mdcc"
	"planet/internal/simnet"
	"planet/internal/txn"
)

func main() {
	var (
		regionFlag = flag.String("region", "us-west", "origin region")
		modeFlag   = flag.String("mode", "fast", "commit path: fast or classic")
		contend    = flag.Bool("contend", false, "race a conflicting writer so the demo txn aborts")
		threshold  = flag.Float64("threshold", 0.95, "speculation threshold")
		scale      = flag.Float64("scale", 0.05, "WAN time compression")
	)
	flag.Parse()

	var mode mdcc.Mode
	switch *modeFlag {
	case "fast":
		mode = mdcc.ModeFast
	case "classic":
		mode = mdcc.ModeClassic
	default:
		fmt.Fprintf(os.Stderr, "planetdemo: unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}

	c, err := cluster.New(cluster.Config{TimeScale: *scale, Seed: time.Now().UnixNano() % 1000})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	db, err := planet.Open(planet.Config{Cluster: c, Mode: mode})
	if err != nil {
		log.Fatal(err)
	}
	c.SeedBytes("demo", []byte("original"))

	s, err := db.Session(simnet.Region(*regionFlag))
	if err != nil {
		fmt.Fprintf(os.Stderr, "planetdemo: %v (regions: %v)\n", err, c.Regions())
		os.Exit(2)
	}

	if *contend {
		// A racing writer commits first, so the demo transaction's read
		// version goes stale and the commit aborts — exercising the
		// speculation-then-apology path.
		fmt.Println("· racing writer submitted from ap-southeast")
	}

	tx := s.Begin()
	if _, err := tx.Read("demo"); err != nil {
		log.Fatal(err)
	}
	tx.Set("demo", []byte("updated by demo"))

	if *contend {
		rival, err := db.Session(c.Regions()[3])
		if err != nil {
			log.Fatal(err)
		}
		rtx := rival.Begin()
		rtx.Set("demo", []byte("rival write"))
		rh, err := rtx.Commit(planet.CommitOptions{})
		if err != nil {
			log.Fatal(err)
		}
		rh.Wait()
		c.Quiesce(5 * time.Second)
	}

	// The cluster runs on its own virtual clock, so the stamps are simulated
	// (scaled) time, exact to the event.
	clk := c.Clock()
	start := clk.Now()
	stamp := func() string {
		return fmt.Sprintf("%8s", clk.Since(start).Round(100*time.Microsecond))
	}
	fmt.Printf("submitting from %s via the %s path (speculate at %.2f)\n", *regionFlag, mode, *threshold)

	h, err := tx.Commit(planet.CommitOptions{
		SpeculateAt: *threshold,
		OnAccept: func(p planet.Progress) {
			fmt.Printf("%s  accepted      likelihood=%.3f\n", stamp(), p.Likelihood)
		},
		OnProgress: func(p planet.Progress) {
			fmt.Printf("%s  %-12s likelihood=%.3f votes=%d/%d\n",
				stamp(), p.Stage, p.Likelihood, p.VotesReceived, p.VotesExpected)
		},
		OnSpeculative: func(p planet.Progress) {
			fmt.Printf("%s  SPECULATIVE — application responds to the user here\n", stamp())
		},
		OnFinal: func(o txn.Outcome) {
			if o.Committed {
				fmt.Printf("%s  COMMITTED across %d datacenters\n", stamp(), len(c.Regions()))
			} else {
				fmt.Printf("%s  ABORTED: %v\n", stamp(), o.Err)
			}
		},
		OnApology: func(o txn.Outcome) {
			fmt.Printf("%s  APOLOGY — the speculative answer was wrong; compensate the user\n", stamp())
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	o := h.Wait()

	c.Quiesce(5 * time.Second)
	fmt.Println()
	for _, r := range c.Regions() {
		v, _ := c.Replica(r).ReadLocal("demo")
		fmt.Printf("replica %-14s %q (v%d)\n", r, v.Bytes, v.Version)
	}
	if o.Committed != (o.Err == nil) {
		log.Fatalf("inconsistent outcome: %+v", o)
	}
}
