package dexlego_test

import (
	"bytes"
	"testing"

	root "dexlego"
	"dexlego/internal/droidbench"
	"dexlego/internal/reassembler"
)

// TestStreamingDexByteIdentical is the streaming writer's corpus gate: for
// every pinned golden-corpus sample, the section-streaming serializer
// (File.WriteStream) must produce exactly the bytes of the buffered writer
// (File.Write).
func TestStreamingDexByteIdentical(t *testing.T) {
	for _, name := range droidbench.CorpusNames {
		s := droidbench.ByName(name)
		if s == nil {
			t.Fatalf("corpus sample %q missing", name)
		}
		t.Run(name, func(t *testing.T) {
			pkg, err := s.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			res, err := root.Reveal(pkg, root.Options{
				Natives:        s.Natives(),
				ForceExecution: true,
				Workers:        1,
			})
			if err != nil {
				t.Fatalf("reveal: %v", err)
			}
			f, _, err := reassembler.Reassemble(res.Collection)
			if err != nil {
				t.Fatalf("reassemble: %v", err)
			}
			buffered, err := f.Write()
			if err != nil {
				t.Fatalf("buffered write: %v", err)
			}
			var streamed bytes.Buffer
			n, err := f.WriteStream(&streamed)
			if err != nil {
				t.Fatalf("stream write: %v", err)
			}
			if n != int64(len(buffered)) || !bytes.Equal(streamed.Bytes(), buffered) {
				t.Errorf("streamed DEX differs from buffered (%d vs %d bytes)",
					streamed.Len(), len(buffered))
			}
		})
	}
}
