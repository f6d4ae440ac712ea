package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Calibration is a reliability table for probability predictions: it buckets
// predictions by value and tracks the realized positive rate per bucket.
// A well-calibrated predictor shows observed ≈ bucket midpoint on every row.
// Predictions are accumulated in fixed point (nano-units) so the sum is
// exact and commutative: concurrent recorders landing in different real-time
// orders cannot perturb the table's low bits across same-seed runs.
type Calibration struct {
	mu      sync.Mutex
	buckets int
	n       []uint64
	hits    []uint64
	sumPred []int64 // sum of predictions × predFixed
}

// predFixed is the fixed-point scale for prediction sums: 1e9 keeps nine
// decimal digits, far below any reported precision, with int64 headroom for
// ~9e9 samples per bucket.
const predFixed = 1e9

// NewCalibration returns a table with the given number of equal-width
// buckets over [0,1]; buckets is clamped to at least 2.
func NewCalibration(buckets int) *Calibration {
	if buckets < 2 {
		buckets = 2
	}
	return &Calibration{
		buckets: buckets,
		n:       make([]uint64, buckets),
		hits:    make([]uint64, buckets),
		sumPred: make([]int64, buckets),
	}
}

// Record logs one (prediction, outcome) pair.
func (c *Calibration) Record(predicted float64, positive bool) {
	if predicted < 0 {
		predicted = 0
	}
	if predicted > 1 {
		predicted = 1
	}
	i := int(predicted * float64(c.buckets))
	if i >= c.buckets {
		i = c.buckets - 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n[i]++
	c.sumPred[i] += int64(math.Round(predicted * predFixed))
	if positive {
		c.hits[i]++
	}
}

// Row is one calibration bucket's aggregate.
type Row struct {
	Lo, Hi        float64 // bucket bounds
	MeanPredicted float64
	Observed      float64
	N             uint64
}

// Rows returns non-empty buckets in ascending prediction order.
func (c *Calibration) Rows() []Row {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rows []Row
	w := 1 / float64(c.buckets)
	for i := 0; i < c.buckets; i++ {
		if c.n[i] == 0 {
			continue
		}
		rows = append(rows, Row{
			Lo:            float64(i) * w,
			Hi:            float64(i+1) * w,
			MeanPredicted: float64(c.sumPred[i]) / predFixed / float64(c.n[i]),
			Observed:      float64(c.hits[i]) / float64(c.n[i]),
			N:             c.n[i],
		})
	}
	return rows
}

// MeanAbsoluteError returns the sample-weighted mean |predicted - observed|
// across buckets — the headline calibration-quality number.
func (c *Calibration) MeanAbsoluteError() float64 {
	rows := c.Rows()
	var total, weighted float64
	for _, r := range rows {
		total += float64(r.N)
		weighted += float64(r.N) * absF(r.MeanPredicted-r.Observed)
	}
	if total == 0 {
		return 0
	}
	return weighted / total
}

// String renders the table for the harness.
func (c *Calibration) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-10s %-10s %8s\n", "bucket", "predicted", "observed", "n")
	for _, r := range c.Rows() {
		fmt.Fprintf(&b, "[%.2f,%.2f)  %-10.3f %-10.3f %8d\n", r.Lo, r.Hi, r.MeanPredicted, r.Observed, r.N)
	}
	fmt.Fprintf(&b, "mean abs calibration error: %.4f\n", c.MeanAbsoluteError())
	return b.String()
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
