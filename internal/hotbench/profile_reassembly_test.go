package hotbench

import (
	"testing"

	"dexlego/internal/reassembler"
)

// BenchmarkReassemblyStage is the reassembly stage body in isolation, for
// profiling the flatten/dexgen/builder hot path with the standard testing
// harness.
func BenchmarkReassemblyStage(b *testing.B) {
	apps, err := loadCorpus()
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range apps {
		if a.collected, err = collect(a); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range apps {
			if _, _, err := reassembler.Reassemble(a.collected); err != nil {
				b.Fatal(err)
			}
		}
	}
}
