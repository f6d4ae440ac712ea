// Package keyspace names the keys of a numbered key range, a prefix followed
// by a decimal index, and recognizes them. The workload key generators name
// every key they draw with Key; a seed image seeds a whole range by keeping
// only its (prefix, n) and asking Covers. The formatter and its parser sit
// side by side here so they cannot drift apart.
package keyspace

import (
	"fmt"
	"strings"
)

// Range is the key space Key(Prefix, i) for 0 ≤ i < N.
type Range struct {
	Prefix string
	N      int
}

// width is the zero-padded width of an index below 1 000 000.
const width = 6

// Key names the i-th key under prefix: i in six zero-padded decimal digits,
// unpadded from 1 000 000 up. Key draws and seeding both sit on this, so it
// hand-rolls the zero-padded decimal instead of going through fmt.
func Key(prefix string, i int) string {
	if i < 0 || i > 999999 {
		return fmt.Sprintf("%s%06d", prefix, i)
	}
	var buf [width]byte
	for j := width - 1; j >= 0; j-- {
		buf[j] = byte('0' + i%10)
		i /= 10
	}
	return prefix + string(buf[:])
}

// Covers reports whether key is Key(r.Prefix, i) for some 0 ≤ i < r.N.
func (r Range) Covers(key string) bool {
	if !strings.HasPrefix(key, r.Prefix) {
		return false
	}
	digits := key[len(r.Prefix):]
	// Key pads to exactly six digits and never pads a longer index; 18
	// digits is as long as an index can be without overflowing an int.
	if len(digits) < width || len(digits) > 18 || len(digits) > width && digits[0] == '0' {
		return false
	}
	i := 0
	for j := 0; j < len(digits); j++ {
		d := digits[j]
		if d < '0' || d > '9' {
			return false
		}
		i = i*10 + int(d-'0')
	}
	return i < r.N
}
