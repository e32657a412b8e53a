package core

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/kernel"
)

// These tests pin the vector paths' contract: the span engine, which
// routes long spans through internal/simd on capable hosts, is bitwise
// identical to the dense oracle at bandwidths that engage every vector
// path. On hosts where simd.Active() == "scalar" (and in the purego build)
// the same comparisons check the scalar loops, so running the suite in both
// builds pins vector ≡ scalar ≡ dense.

// vectorSpec builds a spec whose spans comfortably exceed vectorSpanCutoff
// (sres/tres are 1, so Hs/Ht voxels equal the bandwidths): disks are up to
// 2*7+1 = 15 rows wide and bars 2*5+1 = 11 long.
func vectorSpec(t *testing.T) grid.Spec {
	t.Helper()
	return testSpec(t, 26, 24, 18, 7, 5)
}

// TestVectorEngineEdgeCases re-runs the span geometric corner cases at
// vector-engaging bandwidths: border points, bandwidths wider than the
// grid, and a spatial kernel that does not specialize beside a temporal
// one that does. Each is compared bitwise
// against the dense oracle.
func TestVectorEngineEdgeCases(t *testing.T) {
	t.Run("border-points", func(t *testing.T) {
		spec := vectorSpec(t)
		pts := []grid.Point{
			{X: 0, Y: 0, T: 0},
			{X: 26, Y: 24, T: 18}, // exactly on the open upper bound
			{X: 0, Y: 24, T: 9},
			{X: 25.9999, Y: 0.0001, T: 17.9999},
		}
		compareDenseAndVB(t, pts, spec, Options{})
	})
	t.Run("bandwidth-wider-than-grid", func(t *testing.T) {
		spec := testSpec(t, 11, 9, 8, 33, 17)
		pts := testPoints(40, spec.Domain, 59)
		compareDenseAndVB(t, pts, spec, Options{})
	})
	t.Run("mixed-specialization", func(t *testing.T) {
		// Only the temporal kernel specializes: the disk fill stays on
		// interface dispatch while the bar fill and multiply-add vectorize.
		spec := vectorSpec(t)
		pts := testPoints(60, spec.Domain, 67)
		compareDenseAndVB(t, pts, spec, Options{
			Spatial: kernel.Cone2D{}, Temporal: kernel.Quartic1D{},
		})
	})
}
