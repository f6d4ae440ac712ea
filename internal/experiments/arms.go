package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/workload"
)

// Every point of a sweep is its own seeded cluster on its own virtual clock,
// so an experiment's arms are independent and run side by side. An arm builds
// what it touches (cluster, topology matrix, workload, key generator, RNG,
// predictor) inside its closure and defers its teardown; what it captures is
// read-only. What two live clusters still share is process-global, and none
// of it can reach a metric, a WAL entry or the shape of a trace:
//
//   - mdcc.readSeq, mdcc.syncSeq and obs.spanSeq mint request and span ids:
//     keys of a rendezvous map or a parent link, never ordered, sharded on or
//     reported. A sibling arm only leaves gaps in a cluster's ids.
//   - txn.NewID's global counter serves tests and the benchmark harness
//     only; a planet.DB mints transaction ids from its own per-region
//     txn.IDSpace.
//   - simnet.deliveryPool and workload.rngPool hand out records that every
//     Get fully rebinds (delivery) or reseeds (RNG).
//
// TestArmsEquivalence holds this to account: one worker and four racing
// workers must agree on every byte of Text and every bit of Metrics.

// armWorkers is the size of the worker pool; tests pin it.
var armWorkers = func() int { return runtime.GOMAXPROCS(0) }

// forArms runs run(0) … run(n-1) on at most armWorkers() goroutines and
// returns the results in index order, whatever order they finished in. Arms
// are handed out in index order and none is started once one has failed, so
// the error returned — the lowest-index one, after every started arm has
// finished — does not depend on timing. A panic in an arm is re-raised on
// the caller, likewise after the pool has drained.
func forArms[T any](n int, run func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	panics := make([]any, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(n, armWorkers()); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Check, then take: an index once taken always runs, so the
			// lowest failing arm cannot be skipped for a later one's failure.
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if panics[i] = recover(); panics[i] != nil || errs[i] != nil {
							failed.Store(true)
						}
					}()
					results[i], errs[i] = run(i)
				}()
			}
		}()
	}
	wg.Wait()
	for i := range errs {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return results, nil
}

// arm is what one arm contributes to its experiment's Result: its rows of
// the table and its metrics.
type arm struct {
	text    string
	metrics map[string]float64
}

func (a *arm) printf(format string, args ...any) { a.text += fmt.Sprintf(format, args...) }

func (a *arm) set(key string, v float64) {
	if a.metrics == nil {
		a.metrics = make(map[string]float64)
	}
	a.metrics[key] = v
}

// sweep runs an experiment's n arms through forArms and builds its Result:
// header, then every arm's rows and metrics in arm order.
func sweep(name, header string, n int, run func(i int) (arm, error)) (Result, error) {
	arms, err := forArms(n, run)
	if err != nil {
		return Result{}, err
	}
	res := Result{Name: name, Text: header, Metrics: make(map[string]float64)}
	for _, a := range arms {
		res.Text += a.text
		for k, v := range a.metrics {
			res.Metrics[k] = v
		}
	}
	return res, nil
}

// closedArm is the arm most sweeps are made of: a cluster, one closed-loop
// workload on it, and rows read off the report — and off the DB, which is
// torn down when row returns.
func closedArm(cfg Config, ccfg cluster.Config, pcfg planet.Config, load workload.Closed,
	row func(a *arm, db *planet.DB, rep *workload.Report)) (arm, error) {
	db, teardown, err := openDB(cfg, ccfg, pcfg)
	if err != nil {
		return arm{}, err
	}
	defer teardown()
	load.DB = db
	rep, err := load.Run()
	if err != nil {
		return arm{}, err
	}
	var a arm
	row(&a, db, rep)
	return a, nil
}
