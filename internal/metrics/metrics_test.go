package metrics

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 ||
		h.Quantile(0.5) != 0 {
		t.Error("empty histogram not zeroed")
	}
}

// TestHistogramFloatEmpty: the float face of an empty histogram answers 0,
// so a likelihood quantile read before any sample is the neutral value.
func TestHistogramFloatEmpty(t *testing.T) {
	if got := NewHistogram().QuantileFloat(0.9); got != 0 {
		t.Fatalf("empty float quantile = %v", got)
	}
}

// TestHistogramUnitQuantiles: likelihoods in [0, 1] go through the float
// face into the duration buckets, and their quantiles hold the layout's
// 5 % relative error.
func TestHistogramUnitQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.ObserveFloat(float64(i%100) / 100)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	for _, tc := range []struct{ p, want float64 }{{0.10, 0.10}, {0.50, 0.50}, {0.95, 0.95}} {
		if got := h.QuantileFloat(tc.p); math.Abs(got-tc.want) > 0.05*tc.want {
			t.Errorf("QuantileFloat(%v) = %v, want %v within 5%%", tc.p, got, tc.want)
		}
	}
	if got := h.QuantileFloat(1); got != 0.99 {
		t.Errorf("QuantileFloat(1) = %v, want the exact max 0.99", got)
	}
}

// TestHistogramReset: Reset clears count, sum, min and max, and the
// histogram records and answers exactly as a new one afterwards.
func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{time.Millisecond, time.Second, time.Minute} {
		h.Observe(d)
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.99) != 0 ||
		len(h.CumulativeBuckets()) != 0 {
		t.Fatalf("after Reset: count %d sum %v min %v max %v", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	h.Observe(42 * time.Millisecond)
	h.Observe(44 * time.Millisecond)
	if h.Count() != 2 || h.Sum() != 86*time.Millisecond || h.Min() != 42*time.Millisecond ||
		h.Max() != 44*time.Millisecond || h.Quantile(0) != 42*time.Millisecond {
		t.Errorf("after Reset and two samples: %+v sum %v", h.Summarize(), h.Sum())
	}
}

// TestHistogramP99Outlier: 99 samples at 50ms and one at 10s. The p50 lands
// within the layout's error of 50ms, the p99 never under-reports, the top
// quantile is the exact outlier, and values outside the bucket range clamp
// into the edge buckets while min and max stay exact.
func TestHistogramP99Outlier(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 99; i++ {
		h.Observe(50 * time.Millisecond)
	}
	h.Observe(10 * time.Second)
	if p50 := h.Quantile(0.50); p50 < 47500*time.Microsecond || p50 > 52500*time.Microsecond {
		t.Errorf("p50 = %v, want 50ms within 5%%", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 50*time.Millisecond {
		t.Errorf("p99 = %v under-reports", p99)
	}
	if top := h.Quantile(1); top != 10*time.Second {
		t.Errorf("Quantile(1) = %v, want the 10s outlier", top)
	}
	h.Observe(0)
	h.Observe(1000 * time.Hour)
	if h.Min() != 0 || h.Max() != 1000*time.Hour || h.Quantile(1) != 1000*time.Hour {
		t.Errorf("min %v max %v after out-of-range samples", h.Min(), h.Max())
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Observe(42 * time.Millisecond)
	s := h.Summarize()
	if s.Count != 1 || s.Min != 42*time.Millisecond || s.Max != 42*time.Millisecond {
		t.Errorf("summary %+v", s)
	}
	if s.P50 != 42*time.Millisecond {
		t.Errorf("p50=%v, want exactly the single sample", s.P50)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	var exact []time.Duration
	for i := 1; i <= 10000; i++ {
		d := time.Duration(i) * 37 * time.Microsecond
		h.Observe(d)
		exact = append(exact, d)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, p := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		got := h.Quantile(p)
		want := exact[int(p*float64(len(exact)))]
		if ratio := float64(got) / float64(want); ratio < 0.93 || ratio > 1.07 {
			t.Errorf("p%.0f: got %v, want %v (ratio %.3f)", p*100, got, want, ratio)
		}
	}
}

func TestHistogramMeanExact(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{10, 20, 30} {
		h.Observe(d * time.Millisecond)
	}
	if got := h.Mean(); got != 20*time.Millisecond {
		t.Errorf("mean=%v, want 20ms", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count=%d", h.Count())
	}
}

// Property: quantile is within the histogram's documented ~5% relative
// error of an exactly computed quantile, for arbitrary sample sets.
func TestHistogramQuantileProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		exact := make([]time.Duration, len(raw))
		for i, r := range raw {
			d := time.Duration(r%10_000_000) * time.Microsecond
			h.Observe(d)
			exact[i] = d
		}
		sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
		for _, p := range []float64{0.25, 0.5, 0.9} {
			got := float64(h.Quantile(p))
			idx := int(p * float64(len(exact)))
			want := float64(exact[idx])
			// Allow one bucket width (5%) plus one rank of slack for
			// bucket-boundary ties.
			lo, hi := idx-1, idx+1
			if lo < 0 {
				lo = 0
			}
			if hi >= len(exact) {
				hi = len(exact) - 1
			}
			min := float64(exact[lo])*0.93 - float64(time.Microsecond)
			max := float64(exact[hi])*1.07 + float64(time.Microsecond)
			if got < min || got > max {
				t.Logf("p=%v got=%v want≈%v [%v,%v]", p, got, want, min, max)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummaryScale(t *testing.T) {
	h := NewHistogram()
	h.Observe(10 * time.Millisecond)
	s := h.Summarize().Scale(50)
	if s.Mean != 500*time.Millisecond {
		t.Errorf("scaled mean=%v", s.Mean)
	}
	if s.Count != 1 {
		t.Errorf("scaled count=%d", s.Count)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter=%d", c.Value())
	}
}

func TestCalibrationDiagonal(t *testing.T) {
	c := NewCalibration(10)
	// Perfectly calibrated source: outcome ~ Bernoulli(p).
	for i := 0; i < 10; i++ {
		p := float64(i)/10 + 0.05
		for j := 0; j < 1000; j++ {
			c.Record(p, float64(j%1000)/1000 < p)
		}
	}
	if mae := c.MeanAbsoluteError(); mae > 0.02 {
		t.Errorf("calibrated source MAE=%v", mae)
	}
	rows := c.Rows()
	if len(rows) != 10 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.MeanPredicted < r.Lo || r.MeanPredicted > r.Hi {
			t.Errorf("bucket [%v,%v) holds mean prediction %v", r.Lo, r.Hi, r.MeanPredicted)
		}
	}
}

func TestCalibrationMiscalibrated(t *testing.T) {
	c := NewCalibration(10)
	// Predicts 0.9, reality is 0.5.
	for j := 0; j < 2000; j++ {
		c.Record(0.9, j%2 == 0)
	}
	if mae := c.MeanAbsoluteError(); mae < 0.35 {
		t.Errorf("miscalibrated source MAE=%v, want ≈0.4", mae)
	}
}

func TestCalibrationClamping(t *testing.T) {
	c := NewCalibration(4)
	c.Record(-0.5, true)
	c.Record(1.5, true)
	rows := c.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows=%v", rows)
	}
	if rows[0].Lo != 0 || rows[len(rows)-1].Hi != 1 {
		t.Errorf("clamped rows: %+v", rows)
	}
}

func TestCalibrationString(t *testing.T) {
	c := NewCalibration(5)
	c.Record(0.7, true)
	s := c.String()
	if !strings.Contains(s, "mean abs calibration error") {
		t.Errorf("missing MAE line: %q", s)
	}
}

func TestLabeledSummaries(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	out := LabeledSummaries(map[string]Summary{
		"b-series": h.Summarize(),
		"a-series": h.Summarize(),
	}, 1)
	ai := strings.Index(out, "a-series")
	bi := strings.Index(out, "b-series")
	if ai < 0 || bi < 0 || ai > bi {
		t.Errorf("labels not sorted:\n%s", out)
	}
}
