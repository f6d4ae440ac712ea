package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}, {-5, 1}, {150, 5},
	} {
		if got := percentile(s, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestMedianDoesNotReorderInput(t *testing.T) {
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of two = %v, want 3", got)
	}
}

// The expected values come from Python:
//
//	q = statistics.quantiles(v, n=4); (q[2]-q[0]) / statistics.median(v)
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, 5.5 / 14.5},
		{[]float64{3, 1, 2}, 2.0 / 2},
		{[]float64{5, 5, 5, 5}, 0},
		{[]float64{1, 100}, 148.5 / 50.5},
	} {
		if got := quartileSpread(c.v); !near(got, c.want) {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if got := quartileSpread([]float64{4}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestReduceWindows(t *testing.T) {
	start := time.Unix(1000, 0)
	at := func(ms int, durMs int) sample {
		return sample{end: start.Add(time.Duration(ms) * time.Millisecond), dur: time.Duration(durMs) * time.Millisecond}
	}
	samples := []sample{
		at(-5, 50),                        // warm-up: dropped
		at(10, 1), at(500, 3), at(999, 2), // window 0: 3 ops
		at(1000, 4),              // window 1: 1 op
		at(2100, 5), at(2900, 6), // window 2: 2 ops
		at(3000, 70), // past the last window: dropped
	}
	ws := reduceWindows(samples, start, time.Second, 3)
	if got, want := ws.perWindow, []int{3, 1, 2}; got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("perWindow = %v, want %v", got, want)
	}
	if ws.rate != 2 {
		t.Errorf("rate = %v, want the median window's 2/s", ws.rate)
	}
	if len(ws.ms) != 6 || ws.ms[0] != 1 || ws.ms[5] != 6 {
		t.Errorf("pooled latencies = %v, want the six in-window ones sorted", ws.ms)
	}
}
