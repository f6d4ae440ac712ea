package workload

import (
	"math/rand"
	"sync"
)

// splitmix64 is a tiny rand.Source64 with O(1) reseeding. math/rand's
// default source carries a 607-word feedback register (~5KB) and pays a
// full table walk on every New/Seed — at millions of per-arrival child
// RNGs the open-loop driver would spend more time seeding generators than
// drawing from them. One splitmix64 step is two xor-shift-multiplies over
// 8 bytes of state, and its output passes the statistical bar the key
// generators need.
type splitmix64 struct{ x uint64 }

// Seed implements rand.Source.
func (s *splitmix64) Seed(seed int64) { s.x = uint64(seed) }

// Uint64 implements rand.Source64.
func (s *splitmix64) Uint64() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// rngPool recycles child RNGs across arrivals. Determinism does not depend
// on which pooled object an arrival happens to get: Seed fully resets the
// splitmix64 state, so every draw sequence is a pure function of the child
// seed alone.
var rngPool = sync.Pool{New: func() any { return rand.New(new(splitmix64)) }}

// clientRNGPool recycles Closed's per-client generators, which use
// math/rand's default source so their streams stay what they always were: a
// fresh one costs a 4.9 KB allocation, and every arm of every experiment
// starts its clients anew. Rand.Seed fully resets that source and the Rand's
// read position, so a recycled generator draws exactly the stream
// rand.New(rand.NewSource(seed)) would, whatever it drew before.
var clientRNGPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// seededRNG returns a generator from pool (rngPool or clientRNGPool) seeded
// with seed. Put it back in the same pool once its draws are done.
func seededRNG(pool *sync.Pool, seed int64) *rand.Rand {
	r := pool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}
