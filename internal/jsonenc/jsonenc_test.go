package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// FuzzMatchesEncodingJSON holds every appender to encoding/json's bytes:
// String for arbitrary (also invalid UTF-8) strings, Float for every bit
// pattern (NaN and the infinities refused, as json.Marshal refuses them),
// Bytes for nil, empty and arbitrary slices, and Time for arbitrary
// instants in arbitrary fixed zones (out-of-range years and zones refused).
func FuzzMatchesEncodingJSON(f *testing.F) {
	f.Add("plain", uint64(0), []byte(nil), int64(0), int32(0))
	f.Add("<a href=\"x\">&amp;</a>\\\b\f\n\r\t\x00\x1f\x7f", math.Float64bits(1e21), []byte{}, int64(-62135596800), int32(3600))
	f.Add("bad \xff\xfe utf8 \xe2\x80\xa8\xe2\x80\xa9 \xe2\x80 é", math.Float64bits(1e-7), []byte{0, 0xff}, int64(253402300800), int32(-86400))
	f.Add("", math.Float64bits(math.NaN()), []byte("xyz"), int64(1<<40), int32(86399))
	f.Add("x", math.Float64bits(math.Inf(-1)), []byte("ab"), int64(-1<<40), int32(-5400))
	f.Add("y", math.Float64bits(123456789.125), []byte("a"), int64(1700000000), int32(0))
	f.Fuzz(func(t *testing.T, s string, bits uint64, b []byte, sec int64, off int32) {
		want, _ := json.Marshal(s)
		if got := String(nil, s); !bytes.Equal(got, want) {
			t.Errorf("String(%q) = %s, want %s", s, got, want)
		}

		fl := math.Float64frombits(bits)
		want, werr := json.Marshal(fl)
		got, gerr := Float([]byte("x"), fl)
		if (werr == nil) != (gerr == nil) || werr == nil && !bytes.Equal(got[1:], want) || gerr != nil && len(got) != 1 {
			t.Errorf("Float(%v) = %s, %v; encoding/json %s, %v", fl, got, gerr, want, werr)
		}

		for _, v := range [][]byte{nil, {}, b} {
			want, _ := json.Marshal(v)
			if got := Bytes(nil, v); !bytes.Equal(got, want) {
				t.Errorf("Bytes(%v) = %s, want %s", v, got, want)
			}
		}

		tm := time.Unix(sec, int64(bits%1e9)).In(time.FixedZone("", int(off)))
		want, werr = json.Marshal(tm)
		got, gerr = Time(nil, tm)
		if (werr == nil) != (gerr == nil) || werr == nil && !bytes.Equal(got, want) {
			t.Errorf("Time(%v) = %s, %v; encoding/json %s, %v", tm, got, gerr, want, werr)
		}
	})
}
