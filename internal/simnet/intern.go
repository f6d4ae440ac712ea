package simnet

import (
	"maps"
	"sync"
	"sync/atomic"
)

// Byte transports decode the same few region and node names from every
// frame. Intern hands back one shared copy of each, so decoding a name
// allocates only the first time it is seen.
const (
	// maxInterned bounds how many names the table keeps.
	maxInterned = 1024
	// maxInternLen bounds the length of a name it keeps.
	maxInternLen = 64
)

var (
	// internTab is the current table, an immutable map replaced whole on
	// each insert, so a lookup takes no lock.
	internTab atomic.Pointer[map[string]string]
	internMu  sync.Mutex // serializes inserts
)

// Intern returns string(b), sharing one copy of each distinct value among
// the first maxInterned values up to maxInternLen bytes long. Past either
// bound it allocates like the plain conversion, so a peer that sends ever
// new names cannot grow the table.
func Intern(b []byte) string {
	if tab := internTab.Load(); tab != nil {
		if s, ok := (*tab)[string(b)]; ok {
			return s
		}
	}
	if len(b) > maxInternLen {
		return string(b)
	}
	internMu.Lock()
	defer internMu.Unlock()
	var old map[string]string
	if tab := internTab.Load(); tab != nil {
		old = *tab
	}
	if s, ok := old[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(old) >= maxInterned {
		return s
	}
	tab := make(map[string]string, len(old)+1)
	maps.Copy(tab, old)
	tab[s] = s
	internTab.Store(&tab)
	return s
}
