package main

import (
	"bytes"
	"testing"
)

func drawKeys(seed int64, client, n int) []string {
	ks := newKeyStream("k-", fastKeys, clientSeed(seed, client))
	out := make([]string, n)
	for i := range out {
		out[i] = ks.next()
	}
	return out
}

func TestKeySequenceIsAFunctionOfSeedAndClient(t *testing.T) {
	a, b := drawKeys(7, 0, 200), drawKeys(7, 0, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed and client diverge at draw %d: %s vs %s", i, a[i], b[i])
		}
	}
	differs := func(x, y []string) bool {
		for i := range x {
			if x[i] != y[i] {
				return true
			}
		}
		return false
	}
	if !differs(a, drawKeys(8, 0, 200)) {
		t.Error("another seed gave the same key sequence")
	}
	if !differs(a, drawKeys(7, 1, 200)) {
		t.Error("another client gave the same key sequence")
	}
	for _, k := range a {
		if len(k) != len("k-000000") || k[:2] != "k-" {
			t.Fatalf("malformed key %q", k)
		}
	}
}

func TestPayloadStamp(t *testing.T) {
	block := payloadBlock(classicValue, 42)
	if !bytes.Equal(block, payloadBlock(classicValue, 42)) {
		t.Fatal("payload block is not a function of its seed")
	}
	a, b := stampPayload(block, 1), stampPayload(block, 2)
	if len(a) != classicValue || bytes.Equal(a, b) {
		t.Error("stamped payloads of different writes must differ")
	}
	if !bytes.Equal(a[8:], block[8:]) {
		t.Error("the stamp must only touch the first eight bytes")
	}
	if !bytes.Equal(block, payloadBlock(classicValue, 42)) {
		t.Error("stamping must not modify the shared block")
	}
}
