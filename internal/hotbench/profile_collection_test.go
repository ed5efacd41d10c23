package hotbench

import "testing"

// BenchmarkCollectionStage is the collection stage body in isolation, for
// profiling the interpreter hot path with the standard testing harness.
func BenchmarkCollectionStage(b *testing.B) {
	apps, err := loadCorpus()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range apps {
			if _, err := collect(a); err != nil {
				b.Fatal(err)
			}
		}
	}
}
