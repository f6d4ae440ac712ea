package latency

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestLogNormalSampleAboveFloor(t *testing.T) {
	d := NewLogNormal(10*time.Millisecond, 5*time.Millisecond, 0.3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		if s := d.Sample(rng); s <= d.Floor {
			t.Fatalf("sample %v not above floor %v", s, d.Floor)
		}
	}
}

// The median of the samples is floor+median, as NewLogNormal documents.
func TestLogNormalMedian(t *testing.T) {
	d := NewLogNormal(10*time.Millisecond, 5*time.Millisecond, 0.4)
	rng := rand.New(rand.NewSource(2))
	samples := make([]time.Duration, 20001)
	for i := range samples {
		samples[i] = d.Sample(rng)
	}
	slices.Sort(samples)
	got, want := samples[len(samples)/2], 15*time.Millisecond
	if diff := got - want; diff < -100*time.Microsecond || diff > 100*time.Microsecond {
		t.Errorf("sample median = %v, want ≈ %v", got, want)
	}
}

// The mean of the samples is the log-normal mean, Floor + exp(Mu+Sigma²/2).
func TestLogNormalMeanMatchesSamples(t *testing.T) {
	d := NewLogNormal(8*time.Millisecond, 4*time.Millisecond, 0.3)
	rng := rand.New(rand.NewSource(2))
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(rng))
	}
	sampleMean := time.Duration(sum / n)
	mean := d.Floor + time.Duration(math.Exp(d.Mu+d.Sigma*d.Sigma/2))
	if ratio := float64(sampleMean) / float64(mean); ratio < 0.98 || ratio > 1.02 {
		t.Errorf("sample mean %v vs analytic mean %v (ratio %.3f)", sampleMean, mean, ratio)
	}
}

func TestConstant(t *testing.T) {
	c := Constant(7 * time.Millisecond)
	if c.Sample(nil) != 7*time.Millisecond {
		t.Error("sample not constant")
	}
}
