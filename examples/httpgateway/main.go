// HTTP gateway example: embed a PLANET deployment behind the net/http
// gateway and drive it exactly as an external service would — submit a
// staged transaction over JSON, poll its likelihood while it runs, and
// await the final geo-replicated decision.
//
// Run with:
//
//	go run ./examples/httpgateway
package main

import (
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/httpapi"
	"planet/internal/regions"
	"planet/internal/vclock"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run stands the gateway up, drives it, and reports to w.
func run(w io.Writer) error {
	// Deployment + gateway for the Ireland region, on a paced clock: the
	// HTTP client below waits in wall time, so simulated time follows the
	// wall clock, as it does in planetd.
	clk := vclock.NewPaced()
	defer clk.Shutdown()
	c, err := cluster.New(cluster.Config{TimeScale: 0.05, Seed: 8, Clock: clk})
	if err != nil {
		return err
	}
	defer c.Close()
	db, err := planet.Open(planet.Config{Cluster: c})
	if err != nil {
		return err
	}
	sess, err := db.Session(regions.Ireland)
	if err != nil {
		return err
	}
	c.SeedInt("votes", 0, 0, 1<<40)
	ts := httptest.NewServer(httpapi.NewServer(db, sess))
	defer ts.Close()
	// Set up: from here on this goroutine is a client outside the
	// simulated world, like the gateway's handlers.
	clk.WorkDone()
	fmt.Fprintf(w, "gateway for %s listening at %s\n\n", regions.Ireland, ts.URL)

	cl := &httpapi.Client{Base: ts.URL}

	// Submit without waiting, then watch the stage machine over HTTP.
	id, err := cl.Submit(httpapi.SubmitRequest{
		Ops:         []httpapi.Op{{Kind: "add", Key: "votes", Delta: 1}},
		SpeculateAt: 0.95,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "submitted %s\n", id)

	for i := 0; i < 50; i++ {
		st, err := cl.Status(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  poll %2d: stage=%-11s likelihood=%.3f votes=%d/%d done=%v\n",
			i, st.Stage, st.Likelihood, st.VotesSeen, st.VotesOverall, st.Done)
		if st.Done {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The blocking convenience path.
	st, err := cl.SubmitAndWait(httpapi.SubmitRequest{
		Ops: []httpapi.Op{{Kind: "add", Key: "votes", Delta: 1}},
	}, 10*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsecond txn: committed=%v in %.1fms (WAN-scaled)\n", st.Committed, st.DurationMs)

	// Waiting for the network to drain is a wait inside the world: enter
	// the clock through its outsider pin for it.
	clk.AddWork(1)
	c.Quiesce(5 * time.Second)
	clk.WorkDone()
	r, err := cl.QuorumRead("votes")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "quorum read: votes=%d (version %d)\n", r.Int, r.Version)

	stats, err := cl.Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "db stats: %v\n", stats)
	return nil
}
