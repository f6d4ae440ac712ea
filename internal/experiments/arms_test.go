package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
)

// withWorkers pins the arm pool to n workers for the test.
func withWorkers(t *testing.T, n int) {
	t.Helper()
	prev := armWorkers
	armWorkers = func() int { return n }
	t.Cleanup(func() { armWorkers = prev })
}

func TestForArmsOrderUnderShuffledCompletion(t *testing.T) {
	withWorkers(t, 4)
	// Four arms on four workers, finishing in reverse: arm i returns only
	// after arm i+1 has.
	const n = 4
	done := make([]chan struct{}, n+1)
	for i := range done {
		done[i] = make(chan struct{})
	}
	close(done[n])
	var finished []int // appended in completion order; the channels order the appends
	got, err := forArms(n, func(i int) (int, error) {
		<-done[i+1]
		finished = append(finished, i)
		close(done[i])
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(finished) != "[3 2 1 0]" {
		t.Fatalf("completion order %v, want reversed", finished)
	}
	if fmt.Sprint(got) != "[0 1 4 9]" {
		t.Errorf("results %v, want index order", got)
	}
}

func TestForArmsMoreArmsThanWorkers(t *testing.T) {
	withWorkers(t, 3)
	var live, peak atomic.Int32
	got, err := forArms(20, func(i int) (int, error) {
		if l := live.Add(1); l > peak.Load() {
			peak.Store(l) // a lost update only lowers peak; the bound below still holds
		}
		runtime.Gosched()
		live.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("results[%d]=%d", i, v)
		}
	}
	if peak.Load() > 3 {
		t.Errorf("%d arms ran at once on a pool of 3", peak.Load())
	}
}

func TestForArmsLowestIndexError(t *testing.T) {
	withWorkers(t, 4)
	// Arms 1 and 2 both fail, arm 2 first: the error returned is arm 1's.
	twoFailed := make(chan struct{})
	_, err := forArms(8, func(i int) (int, error) {
		switch i {
		case 1:
			<-twoFailed
			return 0, errors.New("arm 1")
		case 2:
			defer close(twoFailed)
			return 0, errors.New("arm 2")
		}
		return i, nil
	})
	if err == nil || err.Error() != "arm 1" {
		t.Fatalf("err=%v, want arm 1's", err)
	}
}

// One worker is the sequential loop forArms replaced: it stops at the first
// error.
func TestForArmsOneWorkerStopsAtFirstError(t *testing.T) {
	withWorkers(t, 1)
	started := 0
	_, err := forArms(8, func(i int) (int, error) {
		started++
		if i == 1 {
			return 0, errors.New("arm 1")
		}
		return i, nil
	})
	if err == nil || started != 2 {
		t.Errorf("err=%v after %d arms, want arm 1's after 2", err, started)
	}
}

func TestForArmsNone(t *testing.T) {
	got, err := forArms(0, func(int) (int, error) {
		t.Error("arm run with n == 0")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Errorf("got %v, %v", got, err)
	}
}

func TestForArmsPanicReraisedAfterDrain(t *testing.T) {
	withWorkers(t, 2)
	started, release := make(chan struct{}), make(chan struct{})
	var siblingDone atomic.Bool
	defer func() {
		if p := recover(); p != "arm 0 blew up" {
			t.Errorf("recovered %v, want arm 0's panic", p)
		}
		if !siblingDone.Load() {
			t.Error("panic reached the caller before the sibling arm finished")
		}
	}()
	forArms(2, func(i int) (int, error) {
		if i == 0 {
			<-started
			defer close(release)
			panic("arm 0 blew up")
		}
		close(started)
		<-release
		siblingDone.Store(true)
		return 0, nil
	})
	t.Error("forArms returned instead of panicking")
}

// A failing arm must take its cluster down with it: the scheduler and
// network goroutines it started are gone when forArms returns, siblings
// included.
func TestForArmsNoGoroutinesAfterFailingArm(t *testing.T) {
	withWorkers(t, 4)
	base := runtime.NumGoroutine()
	_, err := forArms(4, func(i int) (int, error) {
		_, teardown, err := openDB(Config{Quick: true, Seed: 1}, cluster.Config{}, planet.Config{})
		if err != nil {
			return 0, err
		}
		defer teardown()
		if i == 2 {
			return 0, errors.New("arm 2 failed")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("no error from a failing arm")
	}
	// Close has stopped every goroutine; give the last ones their final
	// instructions before counting.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after a failing arm, %d before", n, base)
	}
}

// TestArmsEquivalence is the arm pool's determinism gate: every registry
// experiment, run with one worker and with four workers racing on four
// processors, must produce the same Text and bit-identical Metrics. It is
// also the test behind the shared-state audit in arms.go: with four
// clusters alive at once every process-global counter and pool is
// interleaved between them.
func TestArmsEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := Config{Quick: true, Seed: 1}
	pass := func(workers int) []Result {
		withWorkers(t, workers)
		out := make([]Result, len(Registry))
		for i, e := range Registry {
			r, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s with %d workers: %v", e.ID, workers, err)
			}
			out[i] = r
		}
		return out
	}
	one, four := pass(1), pass(4)
	for i, e := range Registry {
		if one[i].Text != four[i].Text {
			t.Errorf("%s: Text differs between 1 and 4 workers:\n%s\n--- vs ---\n%s", e.ID, one[i].Text, four[i].Text)
		}
		if metricsHash(one[i]) != metricsHash(four[i]) {
			t.Errorf("%s: Metrics differ between 1 and 4 workers:\n%s\n--- vs ---\n%s",
				e.ID, one[i].FormatMetrics(), four[i].FormatMetrics())
		}
	}
}
