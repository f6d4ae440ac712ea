package workload

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	planet "planet/internal/core"
	"planet/internal/metrics"
	"planet/internal/txn"
	"planet/internal/vclock"
)

// Report aggregates the results of one workload run. All recording methods
// are safe for concurrent use.
type Report struct {
	// Accept, Speculative and Final are latencies from submission to the
	// corresponding stage; Perceived is the user-visible response time:
	// the speculative latency when the transaction speculated, otherwise
	// the final latency (rejections respond immediately).
	Accept      *metrics.Histogram
	Speculative *metrics.Histogram
	Final       *metrics.Histogram
	Perceived   *metrics.Histogram

	Committed  atomic.Uint64
	Aborted    atomic.Uint64
	Rejected   atomic.Uint64
	Speculated atomic.Uint64
	Apologies  atomic.Uint64

	// Elapsed is the run's duration on the driving clock (wall time under
	// the real clock, simulated time under a virtual one). Set by drivers.
	Elapsed time.Duration
}

// NewReport returns an empty report.
func NewReport() *Report {
	return &Report{
		Accept:      metrics.NewHistogram(),
		Speculative: metrics.NewHistogram(),
		Final:       metrics.NewHistogram(),
		Perceived:   metrics.NewHistogram(),
	}
}

// Decided counts transactions that ran to a commit/abort decision.
func (r *Report) Decided() uint64 { return r.Committed.Load() + r.Aborted.Load() }

// Total counts all finished transactions including rejections.
func (r *Report) Total() uint64 { return r.Decided() + r.Rejected.Load() }

// CommitRate is committed / decided (rejections excluded).
func (r *Report) CommitRate() float64 {
	d := r.Decided()
	if d == 0 {
		return 0
	}
	return float64(r.Committed.Load()) / float64(d)
}

// SpeculationRate is speculated / decided.
func (r *Report) SpeculationRate() float64 {
	d := r.Decided()
	if d == 0 {
		return 0
	}
	return float64(r.Speculated.Load()) / float64(d)
}

// ApologyRate is apologies / speculated: how often the guess was wrong.
func (r *Report) ApologyRate() float64 {
	s := r.Speculated.Load()
	if s == 0 {
		return 0
	}
	return float64(r.Apologies.Load()) / float64(s)
}

// GoodputPerSec is committed transactions per second of run time.
func (r *Report) GoodputPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Committed.Load()) / r.Elapsed.Seconds()
}

// String renders a one-run summary (latencies in raw emulator time).
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d committed=%d aborted=%d rejected=%d speculated=%d apologies=%d\n",
		r.Total(), r.Committed.Load(), r.Aborted.Load(), r.Rejected.Load(),
		r.Speculated.Load(), r.Apologies.Load())
	fmt.Fprintf(&b, "commit-rate=%.3f spec-rate=%.3f apology-rate=%.3f goodput=%.1f/s\n",
		r.CommitRate(), r.SpeculationRate(), r.ApologyRate(), r.GoodputPerSec())
	fmt.Fprintf(&b, "final:     %s\n", r.Final.Summarize())
	fmt.Fprintf(&b, "perceived: %s\n", r.Perceived.Summarize())
	return b.String()
}

// txnRecord records one transaction into a report. The callbacks are method
// values on it, so what they capture is allocated once per commit rather
// than once per callback.
type txnRecord struct {
	r      *Report
	clk    vclock.Clock
	start  time.Time
	ledger *Ledger // nil unless the driver keeps one
	// Speculation can fire at the submission instant, where the elapsed
	// time is exactly zero under a virtual clock — track "did speculate"
	// explicitly rather than inferring it from a nonzero latency.
	speculated  atomic.Bool
	specElapsed atomic.Int64
}

// callbacks builds the CommitOptions that record one transaction into the
// report (and its finish into ledger, when non-nil), composing with any
// caller-specified speculation config.
func (r *Report) callbacks(clk vclock.Clock, speculateAt float64, deadline time.Duration, ledger *Ledger) planet.CommitOptions {
	t := &txnRecord{r: r, clk: clk, start: clk.Now(), ledger: ledger}
	return planet.CommitOptions{
		SpeculateAt:   speculateAt,
		Deadline:      deadline,
		OnAccept:      t.accept,
		OnSpeculative: t.speculative,
		OnFinal:       t.final,
		OnApology:     t.apology,
	}
}

func (t *txnRecord) accept(planet.Progress) { t.r.Accept.Observe(t.clk.Since(t.start)) }

func (t *txnRecord) speculative(planet.Progress) {
	e := t.clk.Since(t.start)
	t.specElapsed.Store(int64(e))
	t.speculated.Store(true)
	t.r.Speculative.Observe(e)
	t.r.Speculated.Add(1)
}

func (t *txnRecord) final(o txn.Outcome) {
	r, e := t.r, t.clk.Since(t.start)
	switch {
	case o.Rejected:
		r.Rejected.Add(1)
		r.Perceived.Observe(e)
	case o.Committed:
		r.Committed.Add(1)
		r.Final.Observe(e)
		if t.speculated.Load() {
			r.Perceived.Observe(time.Duration(t.specElapsed.Load()))
		} else {
			r.Perceived.Observe(e)
		}
	default:
		r.Aborted.Add(1)
		r.Final.Observe(e)
		if t.speculated.Load() {
			r.Perceived.Observe(time.Duration(t.specElapsed.Load()))
		} else {
			r.Perceived.Observe(e)
		}
	}
	if t.ledger != nil {
		t.ledger.finish(o)
	}
}

func (t *txnRecord) apology(txn.Outcome) { t.r.Apologies.Add(1) }
