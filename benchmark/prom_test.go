package main

import (
	"math"
	"testing"
)

const promFixture = `# HELP planet_txn_duration_seconds Transaction duration.
# TYPE planet_txn_duration_seconds histogram
planet_txn_duration_seconds_bucket{outcome="committed",le="0.001"} 10
planet_txn_duration_seconds_bucket{outcome="committed",le="0.002"} 30
planet_txn_duration_seconds_bucket{outcome="committed",le="0.004"} 40
planet_txn_duration_seconds_bucket{outcome="committed",le="+Inf"} 40
planet_txn_duration_seconds_bucket{outcome="aborted",le="+Inf"} 0
planet_txn_duration_seconds_sum{outcome="committed"} 0.0625
planet_txn_duration_seconds_count{outcome="committed"} 40
planet_mdcc_decisions_total{coordinator="us-west",outcome="commit"} 38
planet_mdcc_decisions_total{coordinator="us-west",outcome="abort"} 2
planet_realnet_sent_total 321
this line is not a sample
planet_http_requests_total{route="/v1/txn/{id}",code="200"} 7
`

func TestParseProm(t *testing.T) {
	p := parseProm(promFixture)
	if got := p.sum("planet_realnet_sent_total", nil); got != 321 {
		t.Errorf("unlabelled counter = %v, want 321", got)
	}
	if got := p.sum("planet_mdcc_decisions_total", map[string]string{"outcome": "commit"}); got != 38 {
		t.Errorf("labelled counter = %v, want 38", got)
	}
	if got := p.sum("planet_mdcc_decisions_total", nil); got != 40 {
		t.Errorf("counter over all labels = %v, want 40", got)
	}
	if got := p.sum("planet_http_requests_total", map[string]string{"route": "/v1/txn/{id}"}); got != 7 {
		t.Errorf("label value with braces = %v, want 7", got)
	}
	if got := p.sum("no_such_metric", nil); got != 0 {
		t.Errorf("missing metric = %v, want 0", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := parseProm(promFixture).hist("planet_txn_duration_seconds", map[string]string{"outcome": "committed"})
	if h.count() != 40 {
		t.Fatalf("count = %v, want 40", h.count())
	}
	// Rank 20 falls in (0.001, 0.002], which holds observations 10..30.
	if got, want := h.quantile(0.5), 0.0015; math.Abs(got-want) > 1e-12 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	// Rank 4 of 10 in the first bucket, which starts at 0.
	if got, want := h.quantile(0.1), 0.0004; math.Abs(got-want) > 1e-12 {
		t.Errorf("p10 = %v, want %v", got, want)
	}
	if got, want := h.quantile(1), 0.004; math.Abs(got-want) > 1e-12 {
		t.Errorf("p100 = %v, want the highest finite bound %v", got, want)
	}
	if got := (promHist{}).quantile(0.5); got != 0 {
		t.Errorf("quantile of an empty histogram = %v, want 0", got)
	}
}

// planetd prints only the bounds it has filled, so a later scrape can list
// bounds an earlier one lacks; the difference must still be exact.
func TestHistogramDelta(t *testing.T) {
	before := parseProm(`h_bucket{le="0.002"} 4
h_bucket{le="+Inf"} 4
`).hist("h", nil)
	after := parseProm(`h_bucket{le="0.001"} 6
h_bucket{le="0.002"} 12
h_bucket{le="0.008"} 14
h_bucket{le="+Inf"} 14
`).hist("h", nil)
	d := after.sub(before)
	want := []float64{6, 8, 10, 10}
	for i, w := range want {
		if d.cum[i] != w {
			t.Fatalf("delta cumulative counts = %v, want %v", d.cum, want)
		}
	}
	if d.count() != 10 {
		t.Errorf("delta count = %v, want 10", d.count())
	}
}

func TestHistogramMergesSeries(t *testing.T) {
	p := parseProm(`v_bucket{region="a",le="0.001"} 1
v_bucket{region="a",le="+Inf"} 2
v_bucket{region="b",le="0.004"} 5
v_bucket{region="b",le="+Inf"} 5
`)
	h := p.hist("v", nil)
	want := []float64{1, 6, 7}
	if len(h.cum) != 3 {
		t.Fatalf("bounds = %v, want three", h.le)
	}
	for i, w := range want {
		if h.cum[i] != w {
			t.Errorf("merged cumulative counts = %v, want %v", h.cum, want)
		}
	}
	m := mergeHist(p.hist("v", map[string]string{"region": "a"}), p.hist("v", map[string]string{"region": "b"}))
	for i, w := range want {
		if m.cum[i] != w {
			t.Errorf("mergeHist cumulative counts = %v, want %v", m.cum, want)
		}
	}
}
