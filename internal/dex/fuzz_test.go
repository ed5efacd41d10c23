package dex

import (
	"bytes"
	"testing"
	"unicode/utf8"
)

// FuzzLEB128 checks the LEB128 codecs: encode-decode round-trips for both
// the unsigned and signed variants, and decoding of arbitrary bytes never
// panics (it must either fail or re-encode consistently).
func FuzzLEB128(f *testing.F) {
	f.Add(uint32(0), int32(0), []byte{})
	f.Add(uint32(1), int32(-1), []byte{0x80})
	f.Add(uint32(127), int32(64), []byte{0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(uint32(128), int32(-128), []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x00})
	f.Add(^uint32(0), int32(-1<<31), []byte{0xe5, 0x8e, 0x26})
	f.Fuzz(func(t *testing.T, u uint32, s int32, raw []byte) {
		// Unsigned round-trip.
		enc := appendULEB128(nil, u)
		if len(enc) > 5 {
			t.Fatalf("uleb128(%d) is %d bytes, max 5", u, len(enc))
		}
		got, off, err := readULEB128(enc, 0)
		if err != nil || got != u || off != len(enc) {
			t.Fatalf("uleb128 round trip: %d -> %v -> (%d, %d, %v)", u, enc, got, off, err)
		}

		// Signed round-trip.
		senc := appendSLEB128(nil, s)
		if len(senc) > 5 {
			t.Fatalf("sleb128(%d) is %d bytes, max 5", s, len(senc))
		}
		sgot, soff, err := readSLEB128(senc, 0)
		if err != nil || sgot != s || soff != len(senc) {
			t.Fatalf("sleb128 round trip: %d -> %v -> (%d, %d, %v)", s, senc, sgot, soff, err)
		}

		// Arbitrary bytes must decode without panicking, and a successful
		// decode must never read past the terminating byte.
		if v, off, err := readULEB128(raw, 0); err == nil {
			if off < 1 || off > len(raw) || off > 5 {
				t.Fatalf("readULEB128(%v) consumed %d bytes", raw, off)
			}
			// Canonical re-encoding decodes to the same value.
			re := appendULEB128(nil, v)
			back, _, err := readULEB128(re, 0)
			if err != nil || back != v {
				t.Fatalf("re-encode of %d failed: %v %v", v, back, err)
			}
		}
		if v, off, err := readSLEB128(raw, 0); err == nil {
			if off < 1 || off > len(raw) || off > 5 {
				t.Fatalf("readSLEB128(%v) consumed %d bytes", raw, off)
			}
			re := appendSLEB128(nil, v)
			back, _, err := readSLEB128(re, 0)
			if err != nil || back != v {
				t.Fatalf("re-encode of %d failed: %v %v", v, back, err)
			}
		}
	})
}

// FuzzMUTF8 checks the Modified-UTF-8 codec: any Go string survives an
// encode-decode round trip (modulo U+FFFD normalization of invalid UTF-8,
// exactly as utf16.Encode performs it), and decoding arbitrary bytes never
// panics; when it succeeds, the decoded string is a fixed point of the
// codec.
func FuzzMUTF8(f *testing.F) {
	f.Add("", []byte{})
	f.Add("hello", []byte{0xc0, 0x80})
	f.Add("Lcom/example/Main;", []byte{0xe0, 0xa0, 0x80})
	f.Add("nul\x00embedded", []byte{0xed, 0xa0, 0x80}) // lone high surrogate
	f.Add("é世\U0001F600", []byte{0xff, 0xfe})
	f.Fuzz(func(t *testing.T, s string, raw []byte) {
		data, utf16Len := encodeMUTF8(s)
		if bytes.IndexByte(data, 0) >= 0 {
			t.Fatalf("encodeMUTF8(%q) contains a raw NUL", s)
		}
		decoded, err := decodeMUTF8(data)
		if err != nil {
			t.Fatalf("decodeMUTF8(encodeMUTF8(%q)) failed: %v", s, err)
		}
		if utf8.ValidString(s) && decoded != s {
			t.Fatalf("round trip of valid UTF-8 %q gave %q", s, decoded)
		}
		// Whatever normalization happened, re-encoding is stable.
		data2, utf16Len2 := encodeMUTF8(decoded)
		if !bytes.Equal(data, data2) || utf16Len != utf16Len2 {
			t.Fatalf("re-encode of %q unstable: %v/%d vs %v/%d",
				s, data, utf16Len, data2, utf16Len2)
		}

		// Arbitrary bytes: decode must not panic; on success the decoded
		// string must be a fixed point.
		u, err := decodeMUTF8(raw)
		if err != nil {
			return
		}
		if !utf8.ValidString(u) {
			t.Fatalf("decodeMUTF8(%v) produced invalid UTF-8 %q", raw, u)
		}
		enc, _ := encodeMUTF8(u)
		u2, err := decodeMUTF8(enc)
		if err != nil || u2 != u {
			t.Fatalf("decoded string %q is not a codec fixed point: %q, %v", u, u2, err)
		}
	})
}
