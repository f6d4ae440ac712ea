package planet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"planet/internal/cluster"
	"planet/internal/predictor"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/txn"
	"planet/internal/vclock"
)

// likelihoodAt names one state of one transaction: which one, how far its
// votes and options had got, and the virtual instant (since submission).
type likelihoodAt struct {
	txn            int
	votes, learned int
	elapsed        time.Duration
}

// likelihoodRunResult is what one arm of TestLikelihoodOnDemandIsExact
// observed.
type likelihoodRunResult struct {
	priors   []uint64                // LikelihoodAtSubmit of each transaction, as float bits
	outcomes []txn.Outcome           // in submission order
	at       map[likelihoodAt]uint64 // likelihood at each observed state, as float bits
	probes   []uint64                // every decayed counter of both predictors, read once the run is over
	deferred int                     // lazy arm: reads that had to compute
	fellBack bool                    // a two-option transaction's first option fell back with the second open
}

// staleReader is the lazy arm's reader: after every message delivery it posts
// a function that reads the likelihood of each handle a vote left stale. The
// post runs behind the delivery's handler and before the clock can move, so
// the read happens at the vote's own instant.
type staleReader struct {
	clk     vclock.Clock
	handles []*Handle
	res     *likelihoodRunResult
}

func (r *staleReader) MessageSent(from, to simnet.Region, delay time.Duration) {}
func (r *staleReader) MessageDropped(from, to simnet.Region)                   {}
func (r *staleReader) MessageDelivered(from, to simnet.Region) {
	r.clk.NewQueue().Post(func() {
		for i, h := range r.handles {
			h.mu.Lock()
			stale := h.stale
			h.mu.Unlock()
			if !stale {
				continue
			}
			p := h.Progress()
			r.res.at[likelihoodAt{i, p.VotesReceived, p.OptionsLearned, p.Elapsed}] = math.Float64bits(p.Likelihood)
			r.res.deferred++
		}
	})
}

// likelihoodRun drives one seeded stream of transactions — single adds,
// blind sets colliding on a hot key, and two-option transactions whose first
// option is that hot set — from two regions of a virtual cluster. With consumer set every transaction has an OnProgress callback, so
// the handle computes the likelihood at every event, as it always used to.
// Without, only the blind hot sets have one (what they report after falling
// back is the classic success rate, the one counter no prior reads); with
// reader set a staleReader reads the other transactions behind every vote,
// and otherwise nobody ever does.
func likelihoodRun(t *testing.T, consumer, reader bool) likelihoodRunResult {
	t.Helper()
	c, err := cluster.New(cluster.Config{Seed: 11, VirtualTime: true, CommitTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		c.Quiesce(2 * time.Second)
	}()
	db, err := Open(Config{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	c.SeedBytes("a-hot", []byte("v0"))
	for i := 0; i < 8; i++ {
		c.SeedInt(fmt.Sprintf("c-%d", i), 1000, 0, 1_000_000)
		c.SeedInt(fmt.Sprintf("z-%d", i), 1000, 0, 1_000_000)
	}
	var sessions []*Session
	for _, r := range []simnet.Region{regions.California, regions.Ireland} {
		s, err := db.Session(r)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	clk := c.Clock()

	res := likelihoodRunResult{at: make(map[likelihoodAt]uint64)}
	sr := &staleReader{clk: clk, res: &res}
	if reader {
		c.Net.SetObserver(sr)
	}
	rng := rand.New(rand.NewSource(3))
	const n = 180
	for i := 0; i < n; i++ {
		i := i
		tx := sessions[rng.Intn(2)].Begin()
		switch i % 6 {
		case 3:
			tx.Set("a-hot", []byte{byte(i)})
		case 4:
			tx.Set("a-hot", []byte{byte(i)}) // first option: keys are proposed in sorted order
			tx.Add(fmt.Sprintf("z-%d", i%8), 1)
		case 5:
			tx.Add(fmt.Sprintf("c-%d", i%8), -1)
			tx.Add(fmt.Sprintf("z-%d", i%8), 1)
		default:
			tx.Add(fmt.Sprintf("c-%d", rng.Intn(8)), -1)
		}
		var opts CommitOptions
		if consumer || i%6 == 3 {
			opts.OnProgress = func(p Progress) {
				res.at[likelihoodAt{i, p.VotesReceived, p.OptionsLearned, p.Elapsed}] = math.Float64bits(p.Likelihood)
			}
		}
		h, err := tx.Commit(opts)
		if err != nil {
			t.Fatal(err)
		}
		res.priors = append(res.priors, math.Float64bits(h.Likelihood()))
		sr.handles = append(sr.handles, h)
		clk.Sleep(time.Duration(100+rng.Intn(300)) * time.Microsecond)
	}
	for _, h := range sr.handles {
		res.outcomes = append(res.outcomes, h.Wait())
		h.mu.Lock()
		if len(h.tracks) == 2 && h.tracks[0].fellBack && h.votes > len(h.regions) {
			res.fellBack = true
		}
		h.mu.Unlock()
	}
	// The counters themselves, through the estimates that read them: the
	// store-wide and per-key accept rates, and the classic success rate.
	for _, s := range sessions {
		keys := []string{"a-hot", "never-written"}
		for i := 0; i < 8; i++ {
			keys = append(keys, fmt.Sprintf("c-%d", i), fmt.Sprintf("z-%d", i))
		}
		for _, k := range keys {
			res.probes = append(res.probes, math.Float64bits(s.pred.AcceptProb(k)))
		}
		classic := predictor.Flight{Options: []predictor.OptionFlight{{Key: "a-hot", FellBack: true}}}
		res.probes = append(res.probes, math.Float64bits(s.pred.Likelihood(classic)))
	}
	return res
}

// TestLikelihoodOnDemandIsExact: a handle computes the likelihood at a vote
// only when something consumes it there, and otherwise at the next read.
// Evaluating it ages the predictor's decayed counters, so skipping must be
// invisible. The same stream runs three ways — with a consumer at every
// event, with none and a reader behind every vote, with none and no reader —
// and all three must give the same outcomes at the same instants, the same
// prior for every later transaction, and leave every counter of the
// predictor in the same state, bit for bit; and each deferred read must
// return exactly what the eager path computed at that vote.
func TestLikelihoodOnDemandIsExact(t *testing.T) {
	eager := likelihoodRun(t, true, false)
	read := likelihoodRun(t, false, true)
	unread := likelihoodRun(t, false, false)

	for name, lazy := range map[string]likelihoodRunResult{"read behind every vote": read, "never read": unread} {
		for i := range eager.priors {
			if eager.priors[i] != lazy.priors[i] {
				t.Fatalf("txn %d: prior %v with a progress consumer, %v without (%s)",
					i, math.Float64frombits(eager.priors[i]), math.Float64frombits(lazy.priors[i]), name)
			}
		}
		for i := range eager.probes {
			if eager.probes[i] != lazy.probes[i] {
				t.Fatalf("predictor probe %d after the run: %v with a progress consumer, %v without (%s)",
					i, math.Float64frombits(eager.probes[i]), math.Float64frombits(lazy.probes[i]), name)
			}
		}
		for i, o := range eager.outcomes {
			l := lazy.outcomes[i]
			if o.Committed != l.Committed || !o.Decided.Equal(l.Decided) || fmt.Sprint(o.Err) != fmt.Sprint(l.Err) {
				t.Fatalf("txn %d: outcome %+v with a progress consumer, %+v without (%s)", i, o, l, name)
			}
		}
		if !lazy.fellBack {
			t.Fatalf("no two-option transaction had its first option fall back while the second was still voting (%s)", name)
		}
	}

	if read.deferred < len(read.outcomes) {
		t.Fatalf("only %d deferred reads over %d transactions: the lazy path was barely taken", read.deferred, len(read.outcomes))
	}
	for _, lazy := range []likelihoodRunResult{read, unread} {
		for at, got := range lazy.at {
			want, ok := eager.at[at]
			if !ok {
				t.Fatalf("likelihood observed at %+v has no eager event to compare with", at)
			}
			if got != want {
				t.Fatalf("at %+v: likelihood %v, eager path stored %v", at, math.Float64frombits(got), math.Float64frombits(want))
			}
		}
	}

	// The stream must contain what the exactness rule is about.
	committed := 0
	for _, o := range eager.outcomes {
		if o.Committed {
			committed++
		}
	}
	if committed == 0 || committed == len(eager.outcomes) {
		t.Fatalf("%d of %d committed: want commits and aborts", committed, len(eager.outcomes))
	}
}
