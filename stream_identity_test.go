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
// (File.Write), at every reassembly worker count. Run under -race in CI,
// this also exercises the parallel assembly fan-out feeding the writer.
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
			for _, workers := range []int{1, 4} {
				f, _, err := reassembler.ReassembleCfg(res.Collection, nil,
					reassembler.Config{Workers: workers})
				if err != nil {
					t.Fatalf("reassemble workers=%d: %v", workers, err)
				}
				buffered, err := f.Write()
				if err != nil {
					t.Fatalf("buffered write workers=%d: %v", workers, err)
				}
				var streamed bytes.Buffer
				n, err := f.WriteStream(&streamed)
				if err != nil {
					t.Fatalf("stream write workers=%d: %v", workers, err)
				}
				if n != int64(len(buffered)) || !bytes.Equal(streamed.Bytes(), buffered) {
					t.Errorf("workers=%d: streamed DEX differs from buffered (%d vs %d bytes)",
						workers, streamed.Len(), len(buffered))
				}
			}
		})
	}
}
