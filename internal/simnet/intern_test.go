package simnet

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// TestInternBounded requires Intern to share one copy of a name, and to
// stop growing its table at maxInterned names and to skip names longer
// than maxInternLen, while still returning the right string for each.
func TestInternBounded(t *testing.T) {
	a, b := Intern([]byte("us-west")), Intern([]byte("us-west"))
	if a != "us-west" || unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatalf("Intern gave %q and %q, not one shared copy", a, b)
	}
	long := strings.Repeat("r", maxInternLen+1)
	if got := Intern([]byte(long)); got != long {
		t.Fatalf("long name came back as %q", got)
	}
	for i := 0; i < maxInterned+10; i++ {
		name := fmt.Sprintf("node-%d", i)
		if got := Intern([]byte(name)); got != name {
			t.Fatalf("Intern(%q) = %q", name, got)
		}
	}
	tab := *internTab.Load()
	if len(tab) != maxInterned {
		t.Fatalf("table holds %d names, want the bound %d", len(tab), maxInterned)
	}
	if _, ok := tab[long]; ok {
		t.Fatal("a name longer than maxInternLen was kept")
	}
}
