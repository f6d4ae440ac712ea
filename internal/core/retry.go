package planet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"planet/internal/mdcc"
	"planet/internal/txn"
)

// MaxAttemptsDefault is Run's attempt budget when the caller passes 0.
const MaxAttemptsDefault = 5

// Backoff between retry attempts, in unscaled WAN time; the session scales
// it through the cluster's TimeScale so tests stay fast. The delay doubles
// per attempt from the base, caps at the max, and is jittered by a factor
// in [0.5, 1.5) so colliding transactions do not re-collide in lockstep.
const (
	retryBackoffBase = 50 * time.Millisecond
	retryBackoffMax  = 2 * time.Second
)

// backoff returns the scaled, jittered delay before retry attempt (0-based:
// the delay after the attempt-th failure).
func (s *Session) backoff(attempt int) time.Duration {
	d := retryBackoffBase
	for i := 0; i < attempt && d < retryBackoffMax; i++ {
		d *= 2
	}
	if d > retryBackoffMax {
		d = retryBackoffMax
	}
	d = time.Duration(float64(d) * s.db.jitter(s.region))
	return s.db.cfg.Cluster.ScaleDuration(d)
}

// Run executes fn inside a transaction and commits it, retrying the whole
// closure on optimistic-concurrency conflicts (the record moved, or a
// competing option was pending) up to attempts times. Each retry re-reads
// through a fresh transaction, so fn must be idempotent up to its writes.
//
// Run blocks until the final decision — it is the convenience wrapper for
// code that does not need the staged callback API. Retries are not
// attempted for bound violations (retrying cannot help), admission
// rejections (the system said no), or errors returned by fn itself.
// Between retries Run sleeps a jittered exponential backoff so a herd of
// conflicting transactions spreads out instead of re-colliding.
func (s *Session) Run(attempts int, fn func(*Txn) error) (txn.Outcome, error) {
	return s.RunCtx(context.Background(), attempts, fn)
}

// RunCtx is Run with cancellation: it stops retrying — and stops waiting on
// an in-flight commit — once ctx is done, returning ctx's error. An
// abandoned in-flight transaction still runs to its decision in the
// background; cancellation gives up the wait, not the commit.
func (s *Session) RunCtx(ctx context.Context, attempts int, fn func(*Txn) error) (txn.Outcome, error) {
	if attempts <= 0 {
		attempts = MaxAttemptsDefault
	}
	var last txn.Outcome
	for i := 0; i < attempts; i++ {
		if err := ctx.Err(); err != nil {
			return last, err
		}
		tx := s.Begin()
		if err := fn(tx); err != nil {
			return txn.Outcome{}, fmt.Errorf("planet: Run closure: %w", err)
		}
		h, err := tx.Commit(CommitOptions{})
		if err != nil {
			return txn.Outcome{}, err
		}
		last, err = h.WaitCtx(ctx)
		if err != nil {
			return last, err
		}
		switch {
		case last.Committed:
			return last, nil
		case last.Rejected:
			return last, last.Err
		case errors.Is(last.Err, mdcc.ErrConflict) || errors.Is(last.Err, mdcc.ErrAmbiguous):
			// Optimistic retry, after a context-aware backoff sleep.
			if i+1 >= attempts {
				continue
			}
			if err := s.db.clk.SleepCtx(ctx, s.backoff(i)); err != nil {
				return last, err
			}
		default:
			return last, last.Err
		}
	}
	return last, fmt.Errorf("planet: Run gave up after %d attempts: %w", attempts, last.Err)
}
