package main

import "testing"

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: 10..60 covered once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // clipped to the parent's end
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
		{ID: 6, Parent: 99, Name: "orphan", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{
		1: 100 - 50 - 10, // minus [10,60) and [90,100)
		2: 30 - 5,
		3: 30,
		4: 40,
		5: 5,
		6: 7,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestUnionLen(t *testing.T) {
	if got := unionLen(nil); got != 0 {
		t.Errorf("empty union = %d", got)
	}
	got := unionLen([]interval{{5, 10}, {0, 3}, {2, 6}, {20, 25}, {21, 22}})
	if got != 15 {
		t.Errorf("union = %d, want 15", got)
	}
}

// The blocking budget hands every instant of Submit→final to exactly one
// layer, so its parts add up to the interval.
func TestBlockingBudgetAddsUp(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanTxn, Txn: 1, Start: 0, End: 1000_000},
		{ID: 2, Parent: 1, Name: spanSubmit, Txn: 1, Start: 0, End: 100_000},
		{ID: 3, Parent: 2, Name: spanSend, Txn: 1, Start: 50_000, End: 90_000},
		{ID: 4, Parent: 1, Name: spanReplHandle, Txn: 1, Start: 300_000, End: 500_000},
		{ID: 5, Parent: 1, Name: spanReplHandle, Txn: 1, Start: 350_000, End: 600_000}, // parallel replica
		{ID: 6, Parent: 4, Name: spanWALWrite, Txn: 1, Start: 400_000, End: 450_000},
		{ID: 7, Parent: 1, Name: spanCoordHandle, Txn: 1, Start: 800_000, End: 1100_000}, // runs past the final event
	}
	b := blockingBudget(spans)
	want := map[string]float64{
		spanSubmit:      60, // 100 minus the send inside it
		spanSend:        40,
		spanReplHandle:  250, // [300,600) minus the WAL write
		spanWALWrite:    50,
		spanCoordHandle: 200, // clipped at the root's end
		"transit":       400,
	}
	var sum float64
	for k, w := range want {
		if got := b[k]; got != w {
			t.Errorf("budget[%s] = %v us, want %v", k, got, w)
		}
	}
	for _, v := range b {
		sum += v
	}
	if sum != 1000 {
		t.Errorf("budget adds up to %v us, want the root's 1000", sum)
	}
}
