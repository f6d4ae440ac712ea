package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("planet_test_total", "help", L("stage", "accepted"))
	b := r.Counter("planet_test_total", "help", L("stage", "accepted"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	other := r.Counter("planet_test_total", "help", L("stage", "aborted"))
	if a == other {
		t.Fatal("distinct labels shared a counter")
	}
	a.Inc()
	a.Add(2)
	if got := a.Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if v, ok := r.Value("planet_test_total", L("stage", "accepted")); !ok || v != 3 {
		t.Errorf("Value = %v,%v want 3,true", v, ok)
	}
	if _, ok := r.Value("planet_test_total", L("stage", "ghost")); ok {
		t.Error("unknown series reported found")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("planet_test_gauge", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
	n := 42.0
	r.GaugeFunc("planet_test_gauge_fn", "help", func() float64 { return n })
	if v, ok := r.Value("planet_test_gauge_fn"); !ok || v != 42 {
		t.Errorf("gauge func = %v,%v", v, ok)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("planet_txn_total", "Transactions.", L("stage", "committed")).Add(7)
	r.Gauge("planet_in_flight", "In flight.").Set(3)
	h := r.Histogram("planet_latency_seconds", "Latency.", L("region", "us-west"))
	for i := 0; i < 100; i++ {
		h.Observe(10 * time.Millisecond)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP planet_txn_total Transactions.",
		"# TYPE planet_txn_total counter",
		`planet_txn_total{stage="committed"} 7`,
		"# TYPE planet_in_flight gauge",
		"planet_in_flight 3",
		"# TYPE planet_latency_seconds histogram",
		`planet_latency_seconds_bucket{region="us-west",le="+Inf"} 100`,
		`planet_latency_seconds_sum{region="us-west"} 1`,
		`planet_latency_seconds_count{region="us-west"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must appear in sorted order for diff-stable scraping.
	if strings.Index(out, "planet_in_flight") > strings.Index(out, "planet_txn_total") {
		t.Error("families not sorted by name")
	}
}

// TestHistogramSumExact: _sum is the exact total of the samples, not a
// truncated mean times the count (1, 2 and 2 ms once read 0.004999998).
func TestHistogramSumExact(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("planet_rt_seconds", "Round trips.")
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond} {
		h.Observe(d)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := "planet_rt_seconds_sum 0.005\n"; !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, b.String())
	}
}

// TestHistogramExpositionParses round-trips the histogram exposition through
// a strict text-format parser and checks the invariants a Prometheus scraper
// relies on: bucket counts are cumulative and non-decreasing in le order, the
// mandatory +Inf bucket is present and equals _count, and _sum is consistent
// with the observed samples.
func TestHistogramExpositionParses(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("planet_rt_seconds", "Round trips.", L("path", "fast"))
	samples := []time.Duration{
		100 * time.Microsecond, 1 * time.Millisecond, 1 * time.Millisecond,
		10 * time.Millisecond, 250 * time.Millisecond, 2 * time.Second,
	}
	var total time.Duration
	for _, d := range samples {
		h.Observe(d)
		total += d
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}

	type bucket struct {
		le  float64
		cum uint64
	}
	var (
		buckets  []bucket
		haveInf  bool
		infCount uint64
		sum      float64
		count    uint64
		sawType  bool
	)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if line == "# TYPE planet_rt_seconds histogram" {
				sawType = true
			}
			continue
		}
		name, rest, ok := strings.Cut(line, "{")
		if !ok {
			name, rest, _ = strings.Cut(line, " ")
			rest = "} " + rest // normalize the no-label shape
		}
		if !strings.HasPrefix(name, "planet_rt_seconds") {
			continue
		}
		labelStr, valStr, ok := strings.Cut(rest, "} ")
		if !ok {
			t.Fatalf("unparseable line %q", line)
		}
		switch {
		case name == "planet_rt_seconds_bucket":
			var le float64
			leIdx := strings.Index(labelStr, `le="`)
			if leIdx < 0 {
				t.Fatalf("bucket line without le label: %q", line)
			}
			leVal := labelStr[leIdx+len(`le="`):]
			leVal = leVal[:strings.IndexByte(leVal, '"')]
			var c uint64
			if _, err := fmt.Sscanf(valStr, "%d", &c); err != nil {
				t.Fatalf("bucket value in %q: %v", line, err)
			}
			if leVal == "+Inf" {
				haveInf, infCount = true, c
				continue
			}
			if _, err := fmt.Sscanf(leVal, "%g", &le); err != nil {
				t.Fatalf("le value in %q: %v", line, err)
			}
			buckets = append(buckets, bucket{le: le, cum: c})
		case name == "planet_rt_seconds_sum":
			if _, err := fmt.Sscanf(valStr, "%g", &sum); err != nil {
				t.Fatalf("sum value in %q: %v", line, err)
			}
		case name == "planet_rt_seconds_count":
			if _, err := fmt.Sscanf(valStr, "%d", &count); err != nil {
				t.Fatalf("count value in %q: %v", line, err)
			}
		}
	}

	if !sawType {
		t.Error("missing '# TYPE planet_rt_seconds histogram' line")
	}
	if !haveInf {
		t.Fatal("missing mandatory le=\"+Inf\" bucket")
	}
	if count != uint64(len(samples)) {
		t.Errorf("_count = %d, want %d", count, len(samples))
	}
	if infCount != count {
		t.Errorf("+Inf bucket = %d, want _count = %d", infCount, count)
	}
	if len(buckets) == 0 {
		t.Fatal("no finite buckets emitted")
	}
	prevLE, prevCum := -1.0, uint64(0)
	for _, bk := range buckets {
		if bk.le <= prevLE {
			t.Errorf("bucket le %g not increasing after %g", bk.le, prevLE)
		}
		if bk.cum < prevCum {
			t.Errorf("bucket cumulative count %d decreased after %d", bk.cum, prevCum)
		}
		prevLE, prevCum = bk.le, bk.cum
	}
	if last := buckets[len(buckets)-1].cum; last > infCount {
		t.Errorf("last finite bucket %d exceeds +Inf bucket %d", last, infCount)
	}
	// Every sample fits under the largest finite bucket here, so the last
	// finite cumulative must already equal the total count.
	if last := buckets[len(buckets)-1].cum; last != count {
		t.Errorf("last finite bucket %d, want %d (all samples in range)", last, count)
	}
	if want := total.Seconds(); math.Abs(sum-want) > want*0.01 {
		t.Errorf("_sum = %g, want ~%g", sum, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("planet_esc_total", "h", L("k", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `planet_esc_total{k="a\"b\\c\nd"} 1`) {
		t.Errorf("bad escaping:\n%s", b.String())
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("planet_mixed", "h")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("planet_mixed", "h")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name did not panic")
		}
	}()
	r.Counter("bad name!", "h")
}

// TestRegistryConcurrency exercises get-or-create and increments from many
// goroutines; run under -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("planet_conc_total", "h", L("g", "x")).Inc()
				r.Histogram("planet_conc_seconds", "h").Observe(time.Millisecond)
				r.Gauge("planet_conc_gauge", "h").Add(1)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			_ = r.WritePrometheus(&b)
		}
	}()
	wg.Wait()
	<-done
	if v, _ := r.Value("planet_conc_total", L("g", "x")); v != 4000 {
		t.Errorf("concurrent counter = %v, want 4000", v)
	}
}
