// Package workload provides the benchmark workloads PLANET's evaluation
// needs: key-popularity generators (uniform, Zipf, hotspot), transaction
// templates modeled on the paper's TPC-W-derived "buy" microbenchmark, and
// closed-loop and open-loop (Poisson) drivers with result collection.
package workload

import (
	"math"
	"math/rand"

	"planet/internal/keyspace"
)

// KeyGen draws keys according to a popularity distribution. Implementations
// are stateless with respect to the RNG, which the caller owns, so drivers
// can run one RNG per client goroutine.
type KeyGen interface {
	// Next draws one key.
	Next(rng *rand.Rand) string
	// Keys returns the full key space.
	Keys() []string
	// Ranges returns the key space as numbered key ranges, which seed in
	// constant time, or nil when it is an explicit list (Keys).
	Ranges() []keyspace.Range
}

// Uniform draws uniformly from N keys.
type Uniform struct {
	Prefix string
	N      int
}

// Next implements KeyGen.
func (u Uniform) Next(rng *rand.Rand) string { return keyspace.Key(u.Prefix, rng.Intn(u.N)) }

// Keys implements KeyGen.
func (u Uniform) Keys() []string { return allKeys(u.Ranges()) }

// Ranges implements KeyGen.
func (u Uniform) Ranges() []keyspace.Range { return []keyspace.Range{{Prefix: u.Prefix, N: u.N}} }

// Zipf draws from n keys with a Zipfian popularity skew, P(k) ∝ (k+1)^-s,
// from an alias table precomputed at construction, so Next is O(1) with
// exactly two RNG draws and no per-draw sampler allocation. Build it once
// and share it: the table is read-only after NewZipf, so one instance
// serves every arrival goroutine of an open-loop run.
type Zipf struct {
	prefix string
	n      int
	prob   []float64
	alias  []int32
}

// NewZipf precomputes the alias table (Vose's method) for n keys with skew
// exponent s (values ≤ 1 are clamped to 1.01).
func NewZipf(prefix string, n int, s float64) *Zipf {
	if n < 1 {
		n = 1
	}
	if s <= 1 {
		s = 1.01
	}
	scaled := make([]float64, n)
	var sum float64
	for i := range scaled {
		scaled[i] = math.Pow(float64(i+1), -s)
		sum += scaled[i]
	}
	prob := make([]float64, n)
	alias := make([]int32, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i := range scaled {
		scaled[i] = scaled[i] / sum * float64(n)
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		lo := small[len(small)-1]
		small = small[:len(small)-1]
		hi := large[len(large)-1]
		large = large[:len(large)-1]
		prob[lo] = scaled[lo]
		alias[lo] = hi
		scaled[hi] += scaled[lo] - 1
		if scaled[hi] < 1 {
			small = append(small, hi)
		} else {
			large = append(large, hi)
		}
	}
	for _, i := range large {
		prob[i] = 1
	}
	for _, i := range small {
		prob[i] = 1 // numerical leftovers; exact weight is ≈1
	}
	return &Zipf{prefix: prefix, n: n, prob: prob, alias: alias}
}

// Next implements KeyGen.
func (z *Zipf) Next(rng *rand.Rand) string {
	i := rng.Intn(z.n)
	if rng.Float64() < z.prob[i] {
		return keyspace.Key(z.prefix, i)
	}
	return keyspace.Key(z.prefix, int(z.alias[i]))
}

// Keys implements KeyGen.
func (z *Zipf) Keys() []string { return allKeys(z.Ranges()) }

// Ranges implements KeyGen.
func (z *Zipf) Ranges() []keyspace.Range { return []keyspace.Range{{Prefix: z.prefix, N: z.n}} }

// Hotspot sends HotProb of the draws to a small hot set and the rest
// uniformly to the cold set — the contention knob for experiments F5/F6.
type Hotspot struct {
	Prefix   string
	HotKeys  int
	ColdKeys int
	HotProb  float64
}

// Next implements KeyGen.
func (h Hotspot) Next(rng *rand.Rand) string {
	if rng.Float64() < h.HotProb {
		return keyspace.Key(h.Prefix+"hot-", rng.Intn(h.HotKeys))
	}
	return keyspace.Key(h.Prefix+"cold-", rng.Intn(h.ColdKeys))
}

// Keys implements KeyGen.
func (h Hotspot) Keys() []string { return allKeys(h.Ranges()) }

// Ranges implements KeyGen: the hot set, then the cold set.
func (h Hotspot) Ranges() []keyspace.Range {
	return []keyspace.Range{{Prefix: h.Prefix + "hot-", N: h.HotKeys}, {Prefix: h.Prefix + "cold-", N: h.ColdKeys}}
}

// Fixed draws uniformly from an explicit key list.
type Fixed struct{ List []string }

// Next implements KeyGen.
func (f Fixed) Next(rng *rand.Rand) string { return f.List[rng.Intn(len(f.List))] }

// Keys implements KeyGen.
func (f Fixed) Keys() []string { return append([]string(nil), f.List...) }

// Ranges implements KeyGen: an explicit list is no range.
func (f Fixed) Ranges() []keyspace.Range { return nil }

// allKeys lists every key of ranges, in order.
func allKeys(ranges []keyspace.Range) []string {
	var keys []string
	for _, r := range ranges {
		for i := range r.N {
			keys = append(keys, keyspace.Key(r.Prefix, i))
		}
	}
	return keys
}
