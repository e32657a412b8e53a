package bench

import (
	"io"
	"testing"
)

// BenchmarkEstimateHarness measures a full harness experiment (fig7) on one
// small instance; the CI smoke step runs it once so the reporting layer
// cannot silently rot.
func BenchmarkEstimateHarness(b *testing.B) {
	cfg := Config{
		Scale:     0.05,
		Instances: []string{"Dengue_Lr-Lb"},
		Out:       io.Discard,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run("fig7", cfg); err != nil {
			b.Fatal(err)
		}
	}
}
