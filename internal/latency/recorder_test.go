package latency

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestRecorderEmpty(t *testing.T) {
	r := NewRecorder(64)
	if _, ok := r.Quantile(0.5); ok {
		t.Error("quantile on empty recorder")
	}
	if got := r.CDF(time.Second); got != 0 {
		t.Errorf("CDF on empty = %v", got)
	}
}

func TestRecorderQuantiles(t *testing.T) {
	r := NewRecorder(1000)
	for i := 1; i <= 100; i++ {
		r.Observe(time.Duration(i) * time.Millisecond)
	}
	if q, _ := r.Quantile(0.5); q < 49*time.Millisecond || q > 52*time.Millisecond {
		t.Errorf("p50=%v", q)
	}
	if q, _ := r.Quantile(0.99); q < 98*time.Millisecond {
		t.Errorf("p99=%v", q)
	}
	if got := r.CDF(50 * time.Millisecond); got != 0.5 {
		t.Errorf("CDF(50ms)=%v", got)
	}
}

func TestRecorderWindowEviction(t *testing.T) {
	r := NewRecorder(16)
	// Fill with large values, then overwrite with small ones.
	for i := 0; i < 16; i++ {
		r.Observe(time.Second)
	}
	for i := 0; i < 16; i++ {
		r.Observe(time.Millisecond)
	}
	if q, _ := r.Quantile(1); q != time.Millisecond {
		t.Errorf("old samples survived the window: max=%v", q)
	}
	if r.Count() != 32 {
		t.Errorf("total count=%d, want 32", r.Count())
	}
}

func TestRecorderNegativeClamped(t *testing.T) {
	r := NewRecorder(16)
	r.Observe(-5 * time.Second)
	if q, _ := r.Quantile(0.5); q != 0 {
		t.Errorf("negative sample stored as %v", q)
	}
}

func TestRecorderSample(t *testing.T) {
	r := NewRecorder(64)
	if _, ok := r.Sample(rand.New(rand.NewSource(1))); ok {
		t.Error("sample from empty recorder")
	}
	r.Observe(3 * time.Millisecond)
	if s, ok := r.Sample(rand.New(rand.NewSource(1))); !ok || s != 3*time.Millisecond {
		t.Errorf("sample=%v ok=%v", s, ok)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Observe(time.Duration(g*1000+i) * time.Microsecond)
				if i%100 == 0 {
					r.Quantile(0.9)
					r.CDF(time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Count() != 8000 {
		t.Errorf("count=%d, want 8000", r.Count())
	}
}

// Property: CDF is a non-decreasing function of the probe value.
func TestRecorderCDFMonotoneProperty(t *testing.T) {
	f := func(samples []uint16, a, b uint16) bool {
		r := NewRecorder(64)
		for _, s := range samples {
			r.Observe(time.Duration(s) * time.Microsecond)
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return r.CDF(time.Duration(lo)*time.Microsecond) <= r.CDF(time.Duration(hi)*time.Microsecond)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are non-decreasing in p and drawn from the window.
func TestRecorderQuantileProperty(t *testing.T) {
	f := func(samples []uint16) bool {
		if len(samples) == 0 {
			return true
		}
		r := NewRecorder(1024)
		minS, maxS := time.Duration(samples[0]), time.Duration(samples[0])
		for _, s := range samples {
			d := time.Duration(s)
			r.Observe(d)
			if d < minS {
				minS = d
			}
			if d > maxS {
				maxS = d
			}
		}
		prev := time.Duration(-1)
		for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
			q, ok := r.Quantile(p)
			if !ok || q < prev || q < minS || q > maxS {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRecorderWindowNotPowerOfTwo checks that a window of 100, which append
// would overshoot when growing the ring, holds exactly the last 100 samples
// in the order a preallocated ring of 100 slots holds them.
func TestRecorderWindowNotPowerOfTwo(t *testing.T) {
	const window = 100
	r := NewRecorder(window)
	var ref [window]time.Duration // the ring preallocated whole
	next := 0
	for i := 1; i <= 437; i++ {
		d := time.Duration(i) * time.Microsecond
		r.Observe(d)
		ref[next] = d
		next = (next + 1) % window
		got := r.AppendWindow(nil)
		want := ref[:min(i, window)]
		if len(got) != len(want) {
			t.Fatalf("after %d samples: window holds %d, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("after %d samples: slot %d = %v, want %v", i, j, got[j], want[j])
			}
		}
	}
	if q, _ := r.Quantile(0); q != 338*time.Microsecond {
		t.Errorf("oldest retained sample = %v, want 338µs", q)
	}
	if r.Count() != 437 {
		t.Errorf("Count = %d, want 437", r.Count())
	}
}
