// Package jsonenc appends JSON values exactly as encoding/json encodes them,
// with its default HTML escaping. The hand-written encoders on the live
// commit path build on it: the gateway's hot request and response bodies
// (internal/httpapi) and the WAL's lines (internal/mdcc). Each function's
// output is byte-identical to json.Marshal of the same Go value, and the
// tests of both callers compare them against encoding/json.
package jsonenc

import (
	"encoding/base64"
	"errors"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// String appends s as encoding/json quotes a string: `"` and `\` escaped,
// control characters as \b \f \n \r \t or \u00XX, `<`, `>` and `&` as
// \u003c-style escapes, each byte of invalid UTF-8 as \ufffd, and U+2028
// and U+2029 as \u2028 and \u2029.
func String(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == 0x2028 || c == 0x2029 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

var errUnsupportedFloat = errors.New("jsonenc: unsupported float value")

// Float appends f as encoding/json formats a float64: the shortest 'f'
// form, or the 'e' form outside [1e-6, 1e21) with a one-digit negative
// exponent unpadded (1e-7, not 1e-07). NaN and ±Inf have no JSON form:
// Float appends nothing and fails, as encoding/json does.
func Float(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errUnsupportedFloat
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// Bytes appends b as encoding/json encodes a []byte: null for a nil slice,
// otherwise standard base64 in quotes ("" for an empty one).
func Bytes(dst, b []byte) []byte {
	if b == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '"')
	dst = base64.StdEncoding.AppendEncode(dst, b)
	return append(dst, '"')
}

var errUnsupportedTime = errors.New("jsonenc: time outside RFC 3339")

// Time appends t as time.Time.MarshalJSON does: RFC 3339 with nanoseconds,
// in quotes. A year outside [0, 9999] or a zone offset of a day or more has
// no RFC 3339 form: Time appends nothing and fails, as MarshalJSON does.
func Time(dst []byte, t time.Time) ([]byte, error) {
	if y := t.Year(); y < 0 || y > 9999 {
		return dst, errUnsupportedTime
	}
	if _, off := t.Zone(); off <= -24*3600 || off >= 24*3600 {
		return dst, errUnsupportedTime
	}
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"'), nil
}
