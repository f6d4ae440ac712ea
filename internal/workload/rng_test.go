package workload

import (
	"math/rand"
	"testing"
)

// drawAll draws n values of every kind a template or key generator uses,
// plus a Read, whose buffered position Seed must also reset.
func drawAll(r *rand.Rand, n int) []float64 {
	out := make([]float64, 0, 5*n+8)
	for i := 0; i < n; i++ {
		out = append(out, float64(r.Int63()), float64(r.Intn(1000+i)), r.Float64(), r.NormFloat64(), r.ExpFloat64())
	}
	buf := make([]byte, 3)
	r.Read(buf)
	for _, b := range buf {
		out = append(out, float64(b))
	}
	return out
}

// TestClientRNGReseedIsExact holds the generator pool to its contract: a
// recycled generator, first used under another seed, draws exactly what a
// fresh rand.New(rand.NewSource(seed)) draws.
func TestClientRNGReseedIsExact(t *testing.T) {
	for _, seed := range []int64{0, 1, 7919, -42, 1 << 40} {
		used := seededRNG(&clientRNGPool, seed+12345)
		drawAll(used, 333)
		clientRNGPool.Put(used)
		want := drawAll(rand.New(rand.NewSource(seed)), 1000)
		check := func(name string, r *rand.Rand) {
			t.Helper()
			got := drawAll(r, 1000)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d, %s generator: draw %d = %v, fresh generator gives %v", seed, name, i, got[i], want[i])
				}
			}
		}
		// The pool usually hands the used generator back, but need not, so
		// the used one is also reseeded the way seededRNG reseeds.
		pooled := seededRNG(&clientRNGPool, seed)
		check("pooled", pooled)
		used.Seed(seed)
		check("reseeded", used)
		clientRNGPool.Put(pooled)
	}
}
