package dex

import (
	"bytes"
	"errors"
	"hash/adler32"
	"math/rand"
	"testing"

	"dexlego/internal/bytecode"
)

func TestAdler32Combine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200000)
		buf := make([]byte, n)
		rng.Read(buf)
		split := 0
		if n > 0 {
			split = rng.Intn(n)
		}
		want := adler32.Checksum(buf)
		got := adler32Combine(
			adler32.Checksum(buf[:split]),
			adler32.Checksum(buf[split:]),
			int64(n-split),
		)
		if got != want {
			t.Fatalf("trial %d (n=%d split=%d): combine = %#x, direct = %#x",
				trial, n, split, got, want)
		}
	}
}

func TestWriteStreamByteIdentical(t *testing.T) {
	f := buildSampleFile(t)
	want, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := f.WriteStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(want)) {
		t.Fatalf("WriteStream reported %d bytes, Write produced %d", n, len(want))
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("streamed output differs from buffered output (%d vs %d bytes)",
			buf.Len(), len(want))
	}
	if _, err := Read(buf.Bytes()); err != nil {
		t.Fatalf("streamed output does not parse: %v", err)
	}
}

// TestWriteStreamNonASCII covers the MUTF-8 string path and static values.
func TestWriteStreamNonASCII(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("Lu/Ü;", AccPublic, "Ljava/lang/Object;")
	v := StringValue(b.String("héllo — ✓ \U0001F600"))
	cls.StaticField("GREETING", "Ljava/lang/String;", AccPublic|AccFinal, &v)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteStream(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("streamed output differs for non-ASCII strings")
	}
}

// TestWriteStreamMultiWindow forces the windowed writer through several
// flushes: one method body alone exceeds streamWindow.
func TestWriteStreamMultiWindow(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("Lbig/C;", AccPublic, "Ljava/lang/Object;")
	var asm bytecode.Assembler
	for i := 0; i < 5*streamWindow/4; i++ { // nops are 2 bytes: ~2.5 windows
		asm.Nop()
	}
	asm.ReturnVoid()
	insns, err := asm.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	cls.Method("huge", "V", nil, AccPublic|AccStatic, &Code{
		RegistersSize: 1, Insns: insns,
	})
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 2*streamWindow {
		t.Fatalf("test file too small to exercise windowing: %d bytes", len(want))
	}
	var buf bytes.Buffer
	n, err := f.WriteStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(want)) || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("streamed output differs (%d vs %d bytes)", buf.Len(), len(want))
	}
}

type failAfterWriter struct {
	n int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, errors.New("sink full")
	}
	return len(p), nil
}

func TestWriteStreamSinkError(t *testing.T) {
	f := buildSampleFile(t)
	if _, err := f.WriteStream(&failAfterWriter{n: 64}); err == nil {
		t.Fatal("expected sink error to propagate")
	}
}
