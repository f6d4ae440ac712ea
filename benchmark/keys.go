package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// clientSeed derives one client's RNG seed from the run seed, so every key a
// client ever sends is a function of (--seed, client index) alone.
func clientSeed(seed int64, client int) int64 {
	return seed*1_000_003 + int64(client)*7919 + 1
}

// keyStream draws uniformly from n keys named prefix-000000 ... under its
// own seeded generator. planetd only ever sees the keys it produces.
type keyStream struct {
	prefix string
	n      int
	rng    *rand.Rand
}

func newKeyStream(prefix string, n int, seed int64) *keyStream {
	return &keyStream{prefix: prefix, n: n, rng: rand.New(rand.NewSource(seed))}
}

// next draws one key.
func (k *keyStream) next() string { return keyName(k.prefix, k.rng.Intn(k.n)) }

// keyName is the canonical name of the i-th key under prefix.
func keyName(prefix string, i int) string { return fmt.Sprintf("%s%06d", prefix, i) }

// payloadBlock is one client's seeded value body. Each write stamps its
// index into the first eight bytes (stampPayload), so the output check can
// tell the last acknowledged write from any earlier one byte for byte.
func payloadBlock(size int, seed int64) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// stampPayload returns a copy of block whose first eight bytes carry i.
func stampPayload(block []byte, i uint64) []byte {
	b := append([]byte(nil), block...)
	binary.BigEndian.PutUint64(b, i)
	return b
}
