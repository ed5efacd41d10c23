package bytecode

import "testing"

// unitsOf reassembles a []uint16 code stream from fuzzed bytes
// (little-endian pairs, trailing odd byte dropped).
func unitsOf(data []byte) []uint16 {
	units := make([]uint16, len(data)/2)
	for i := range units {
		units[i] = uint16(data[2*i]) | uint16(data[2*i+1])<<8
	}
	return units
}

// FuzzDecode drives arbitrary code units through Decode: decoding must
// never panic, a successful decode must report a sane width, and
// re-encoding the decoded instruction must round-trip back to an equal
// instruction — the reassembler depends on exactly this property when it
// re-emits collected instructions into the revealed DEX.
func FuzzDecode(f *testing.F) {
	seeds := [][]byte{
		{0x12, 0x01},                         // const/4 v1, 1
		{0x13, 0x00, 0x2a, 0x00},             // const/16 v0, 42
		{0x0e, 0x00},                         // return-void
		{0x90, 0x02, 0x00, 0x01},             // add-int v2, v0, v1
		{0x28, 0xff},                         // goto -1
		{0x38, 0x00, 0x03, 0x00},             // if-eqz v0, +3
		{0x1a, 0x00, 0x07, 0x00},             // const-string v0, @7
		{0x6e, 0x20, 0x05, 0x00, 0x10, 0x00}, // invoke-virtual {v0, v1}
		{0x2b, 0x00, 0x03, 0x00, 0x00, 0x00, // packed-switch v0, +3
			0x00, 0x01, 0x01, 0x00, 0x05, 0x00, 0x00, 0x00, // payload: 1 case
			0x0a, 0x00, 0x00, 0x00},
		{0x00, 0x00}, // nop
		{0xff, 0xff}, // unused opcode
	}
	for _, s := range seeds {
		f.Add(s, uint16(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, pcRaw uint16) {
		insns := unitsOf(data)
		if len(insns) == 0 {
			return
		}
		pc := int(pcRaw) % len(insns)
		in, width, err := Decode(insns, pc)
		if err != nil {
			return // malformed input must fail cleanly, not panic
		}
		if width < 1 || pc+width > len(insns) {
			t.Fatalf("Decode(pc=%d) reported width %d beyond stream of %d units",
				pc, width, len(insns))
		}
		if got := in.Width(); got != width {
			t.Fatalf("Decode width %d != format width %d for %v", width, got, in)
		}

		// Re-encode of a decoded instruction must succeed and round-trip.
		enc, err := Encode(&in)
		if err != nil {
			t.Fatalf("Encode of decoded %v failed: %v", in, err)
		}
		if len(enc) != width {
			t.Fatalf("re-encode width %d != decode width %d for %v", len(enc), width, in)
		}
		stream := enc
		if pw := in.PayloadWidth(); pw > 0 {
			// Switch instructions need their payload appended where Off
			// points before they re-decode.
			payload, err := EncodePayload(&in)
			if err != nil {
				t.Fatalf("EncodePayload of decoded %v failed: %v", in, err)
			}
			if in.Off < int32(len(enc)) {
				return // payload before/overlapping the opcode: not re-placeable as-is
			}
			padded := make([]uint16, int(in.Off)+len(payload))
			copy(padded, enc)
			copy(padded[in.Off:], payload)
			stream = padded
		}
		back, w2, err := Decode(stream, 0)
		if err != nil {
			t.Fatalf("re-decode of %v (%04x) failed: %v", in, stream, err)
		}
		if w2 != width {
			t.Fatalf("re-decode width %d != %d for %v", w2, width, in)
		}
		if !back.Equal(&in) {
			t.Fatalf("round trip mismatch:\n  decoded   %v\n  re-decoded %v", in, back)
		}
	})
}
