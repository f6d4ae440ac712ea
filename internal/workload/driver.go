package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	planet "planet/internal/core"
	"planet/internal/simnet"
	"planet/internal/vclock"
)

// Options is the configuration shared by the drivers.
type Options struct {
	// DB is the database under test. Required.
	DB *planet.DB
	// Template builds the transactions. Required.
	Template Template
	// Regions restricts transaction origins; empty means all cluster
	// regions round-robin.
	Regions []simnet.Region
	// SpeculateAt enables speculative commits at the given likelihood.
	SpeculateAt float64
	// Deadline is the per-transaction deadline (emulator time).
	Deadline time.Duration
	// Seed makes key choices deterministic.
	Seed int64
	// SkipSeed skips seeding the template's key space (for re-runs over
	// a warm cluster).
	SkipSeed bool
}

// validate fills defaults and reports misconfiguration.
func (o *Options) validate() error {
	if o.DB == nil {
		return fmt.Errorf("workload: Options.DB is required")
	}
	if o.Template == nil {
		return fmt.Errorf("workload: Options.Template is required")
	}
	if len(o.Regions) == 0 {
		o.Regions = o.DB.Cluster().Regions()
	}
	if !o.SkipSeed {
		o.Template.Seed(o.DB.Cluster())
	}
	return nil
}

// Closed runs a closed-loop workload: Clients concurrent clients, each
// submitting PerClient transactions back to back, waiting for the final
// decision (not just speculation) before the next. Each client draws its keys
// from its own generator, recycled once the client ends, so a Template must
// not keep the generator past Build.
type Closed struct {
	Options
	Clients   int
	PerClient int
}

// Run executes the workload and returns its report.
func (c Closed) Run() (*Report, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.PerClient <= 0 {
		c.PerClient = 1
	}
	clk := c.DB.Cluster().Clock()
	report := NewReport()
	start := clk.Now()

	g := vclock.NewGroup(clk)
	errs := make(chan error, c.Clients)
	for i := 0; i < c.Clients; i++ {
		region := c.Regions[i%len(c.Regions)]
		rng := seededRNG(&clientRNGPool, c.Seed+int64(i)*7919)
		g.Go(func() {
			defer clientRNGPool.Put(rng)
			s, err := c.DB.Session(region)
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < c.PerClient; j++ {
				tx, err := c.Template.Build(s, rng)
				if err != nil {
					errs <- fmt.Errorf("workload: build: %w", err)
					return
				}
				h, err := tx.Commit(report.callbacks(clk, c.SpeculateAt, c.Deadline, nil))
				if err != nil {
					errs <- fmt.Errorf("workload: commit: %w", err)
					return
				}
				h.Wait()
			}
		})
	}
	g.Wait()
	close(errs)
	report.Elapsed = clk.Since(start)
	if err := <-errs; err != nil {
		return report, err
	}
	return report, nil
}

// RatePhase is one piece of a piecewise-constant arrival-rate schedule:
// Rate arrivals per second (emulator time) sustained for Dur. Chaining
// phases models diurnal load curves and surges; a zero-rate phase is an
// idle trough.
type RatePhase struct {
	Rate float64
	Dur  time.Duration
}

// Open runs an open-loop workload: transactions arrive as a Poisson process
// regardless of completion — the load shape under which admission control
// earns its keep. Either a flat Rate/Count or a Phases schedule paces the
// arrivals; child RNGs come from a pool of O(1)-reseed generators so a
// million-arrival run doesn't allocate a fresh generator per arrival, and
// an arrival in flight holds its handle and no goroutine (Closed, whose
// clients are sequential loops, keeps one goroutine per client).
type Open struct {
	Options
	// Rate is the mean arrival rate, transactions per second. Ignored
	// when Phases is set.
	Rate float64
	// Count is the total number of transactions to submit. Ignored when
	// Phases is set (the schedule's duration bounds the run instead).
	Count int
	// Phases, when non-empty, shapes the arrival rate over the run as a
	// piecewise-constant (diurnal / surge) profile. The exponential gap
	// is redrawn at each phase boundary, which by memorylessness leaves
	// the process exactly Poisson at the new rate.
	Phases []RatePhase
	// Batch groups every arrival falling inside one window of this width
	// into a single scheduler sleep: the pacer sleeps once to the window
	// end and injects the batch in timestamp order. At high rates this
	// turns one timer per arrival into one per window while keeping the
	// injection order (and thus determinism) intact; observed latencies
	// shift by at most Batch. Zero disables batching.
	Batch time.Duration
	// Ledger, when non-nil, receives every inject/finish event and a
	// conservation sample every SampleEvery arrivals.
	Ledger *Ledger
	// SampleEvery is the ledger sampling stride in arrivals (default 1024).
	SampleEvery int
}

// Run executes the workload and returns its report.
func (o Open) Run() (*Report, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	if len(o.Phases) == 0 {
		if o.Rate <= 0 {
			return nil, fmt.Errorf("workload: Open.Rate must be positive, got %v", o.Rate)
		}
		if o.Count <= 0 {
			o.Count = 100
		}
	} else {
		for i, ph := range o.Phases {
			if ph.Dur <= 0 {
				return nil, fmt.Errorf("workload: Open.Phases[%d].Dur must be positive, got %v", i, ph.Dur)
			}
			if ph.Rate < 0 {
				return nil, fmt.Errorf("workload: Open.Phases[%d].Rate must be non-negative, got %v", i, ph.Rate)
			}
		}
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 1024
	}

	clk := o.DB.Cluster().Clock()
	report := NewReport()
	rng := rand.New(rand.NewSource(o.Seed))
	sessions := make([]*planet.Session, len(o.Regions))
	for i, r := range o.Regions {
		s, err := o.DB.Session(r)
		if err != nil {
			return nil, err
		}
		sessions[i] = s
	}

	// Arrivals are paced by this goroutine; each arrival's build+commit is
	// posted (Group.Start) with a child RNG seeded from the pacing RNG, so
	// key choices stay a pure function of the arrival index. An arrival has
	// no goroutine: under a virtual clock the body runs inline on the
	// scheduler loop and the handle's OnDone — not a parked h.Wait — marks
	// it finished, so a million arrivals in flight hold a million handles
	// and nothing else.
	start := clk.Now()
	g := vclock.NewGroup(clk)
	var errMu sync.Mutex
	var firstErr error
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	inject := func(s *planet.Session, childSeed int64) {
		if o.Ledger != nil {
			o.Ledger.inject()
		}
		g.Start(func(done func()) {
			crng := seededRNG(&rngPool, childSeed)
			tx, err := o.Template.Build(s, crng)
			rngPool.Put(crng)
			if err != nil {
				if o.Ledger != nil {
					o.Ledger.abandon()
				}
				setErr(fmt.Errorf("workload: build: %w", err))
				done()
				return
			}
			h, err := tx.Commit(report.callbacks(clk, o.SpeculateAt, o.Deadline, o.Ledger))
			if err != nil {
				if o.Ledger != nil {
					o.Ledger.abandon()
				}
				setErr(fmt.Errorf("workload: commit: %w", err))
				done()
				return
			}
			h.OnDone(done)
		})
	}

	// The pacer draws (gap, childSeed) pairs in a fixed order, batches
	// arrivals when asked, and samples the conservation ledger on a fixed
	// arrival stride — all on this goroutine, so the whole arrival
	// sequence is a pure function of the seed.
	type arrival struct {
		s    *planet.Session
		seed int64
	}
	var pending []arrival
	var flushAt time.Time
	flush := func() {
		if len(pending) == 0 {
			return
		}
		if d := clk.Until(flushAt); d > 0 {
			clk.Sleep(d)
		}
		for _, a := range pending {
			inject(a.s, a.seed)
		}
		pending = pending[:0]
	}

	next := start
	phase := 0
	phaseEnd := start
	if len(o.Phases) > 0 {
		phaseEnd = start.Add(o.Phases[0].Dur)
	}
	injected := 0
	for {
		var rate float64
		if len(o.Phases) > 0 {
			if phase >= len(o.Phases) {
				break
			}
			rate = o.Phases[phase].Rate
			if rate <= 0 {
				// Idle trough: skip straight to the next phase.
				next = phaseEnd
				phase++
				if phase < len(o.Phases) {
					phaseEnd = phaseEnd.Add(o.Phases[phase].Dur)
				}
				continue
			}
		} else {
			if injected >= o.Count {
				break
			}
			rate = o.Rate
		}
		// Poisson arrivals: exponential inter-arrival gaps.
		next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if len(o.Phases) > 0 && next.After(phaseEnd) {
			// The gap crossed a phase boundary: restart the draw at the
			// boundary under the next phase's rate (memorylessness makes
			// this statistically exact).
			next = phaseEnd
			phase++
			if phase < len(o.Phases) {
				phaseEnd = phaseEnd.Add(o.Phases[phase].Dur)
			}
			continue
		}
		childSeed := rng.Int63()
		errMu.Lock()
		stop := firstErr != nil
		errMu.Unlock()
		if stop {
			break
		}
		s := sessions[injected%len(sessions)]
		if o.Batch > 0 {
			if len(pending) > 0 && next.After(flushAt) {
				flush()
			}
			if len(pending) == 0 {
				flushAt = next.Add(o.Batch)
			}
			pending = append(pending, arrival{s: s, seed: childSeed})
		} else {
			if d := clk.Until(next); d > 0 {
				clk.Sleep(d)
			}
			inject(s, childSeed)
		}
		injected++
		if o.Ledger != nil && injected%o.SampleEvery == 0 {
			flush() // the sample counts batched arrivals only once injected
			if err := o.Ledger.Sample(clk.Since(start)); err != nil {
				setErr(err)
			}
		}
	}
	flush()
	g.Wait()
	report.Elapsed = clk.Since(start)
	if o.Ledger != nil {
		if err := o.Ledger.Sample(clk.Since(start)); err != nil {
			setErr(err)
		}
		if f := o.Ledger.Final(); f.InFlight != 0 {
			setErr(fmt.Errorf("workload: %d transactions still in flight after drain: %v", f.InFlight, f))
		}
	}
	errMu.Lock()
	defer errMu.Unlock()
	return report, firstErr
}
