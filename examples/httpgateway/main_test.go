package main

import (
	"strings"
	"testing"
)

// TestRun drives the example end to end on its paced clock: it must finish
// without error, and both transactions must commit and be read back.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"done=true",
		"second txn: committed=true",
		"quorum read: votes=2 (version 2)",
		"Committed:2 ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
