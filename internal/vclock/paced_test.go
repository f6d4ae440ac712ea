package vclock

import (
	"testing"
	"time"
)

// newPacedClock returns a running paced clock and registers its shutdown.
func newPacedClock(t *testing.T) *Virtual {
	t.Helper()
	v := NewPaced()
	t.Cleanup(v.Shutdown)
	return v
}

func TestPacedTimerWaitsForWallTime(t *testing.T) {
	wall := time.Now()
	v := newPacedClock(t)
	before := v.Now()
	fired := v.NewEvent()
	v.AfterFunc(50*time.Millisecond, fired.Fire)
	fired.Wait()
	if elapsed := time.Since(wall); elapsed < 50*time.Millisecond {
		t.Fatalf("50ms paced timer fired after %v of wall time", elapsed)
	}
	if got := v.Since(before); got != 50*time.Millisecond {
		t.Fatalf("virtual elapsed = %v, want exactly 50ms", got)
	}
	// Virtual time never runs ahead of wall time since the start. (A loop
	// that fell behind catches up, so one sleep may take less wall time
	// than it asks for.)
	v.Sleep(30 * time.Millisecond)
	if elapsed := time.Since(wall); elapsed < 80*time.Millisecond {
		t.Fatalf("80ms of paced virtual time took %v of wall time", elapsed)
	}
}

func TestPacedOutsiderEntersAtWallTime(t *testing.T) {
	v := newPacedClock(t)
	v.Sleep(5 * time.Millisecond) // the last event
	last := v.Now()
	const next = time.Hour
	v.AfterFunc(next, func() {})
	v.WorkDone() // the creator leaves; the clock idles until the hour

	time.Sleep(100 * time.Millisecond)
	if idle := v.Since(last); idle < 100*time.Millisecond || idle > next {
		t.Fatalf("Now on an idle paced clock is %v past the last event, want in [100ms, 1h]", idle)
	}
	seen := make(chan time.Time, 1)
	v.Post(func() { seen <- v.Now() })
	got := <-seen
	if d := got.Sub(last); d < 100*time.Millisecond || d > next {
		t.Fatalf("posted function saw Now %v past the last event, want in [100ms, 1h]", d)
	}

	// A timer armed by the outsider's work counts from the present, not
	// from the last event.
	wall := time.Now()
	fired := make(chan time.Time, 1)
	v.AddWork(1)
	entered := v.Now()
	v.AfterFunc(20*time.Millisecond, func() { fired <- v.Now() })
	v.WorkDone()
	at := <-fired
	if d := at.Sub(entered); d != 20*time.Millisecond {
		t.Fatalf("timer fired %v after the pinned entry, want 20ms", d)
	}
	if elapsed := time.Since(wall); elapsed < 20*time.Millisecond {
		t.Fatalf("20ms timer armed by an outsider fired after %v of wall time", elapsed)
	}
}
