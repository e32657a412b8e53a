package core

import (
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/kernel"
)

// polyKernelPairs are the kernel families covered by the specialization
// hook (plus a mixed pairing).
var polyKernelPairs = []struct {
	name string
	sk   kernel.Spatial
	tk   kernel.Temporal
}{
	{"epanechnikov", kernel.Epanechnikov2D{}, kernel.Epanechnikov1D{}},
	{"quartic", kernel.Quartic2D{}, kernel.Quartic1D{}},
	{"triweight", kernel.Triweight2D{}, kernel.Triweight1D{}},
	{"uniform", kernel.Uniform2D{}, kernel.Uniform1D{}},
	{"mixed", kernel.Quartic2D{}, kernel.Triweight1D{}},
}

func assertBitwise(t *testing.T, label string, want, got *grid.Grid) {
	t.Helper()
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s: voxel %d differs: %v vs %v (delta %g)",
				label, i, want.Data[i], got.Data[i], want.Data[i]-got.Data[i])
		}
	}
}

// TestSpecializedEnginesBitwiseIdentical is the central fast-path property:
// for every specializable kernel pair and every span-engine algorithm, the
// devirtualized span engine and the dense oracle produce bitwise-identical
// grids.
func TestSpecializedEnginesBitwiseIdentical(t *testing.T) {
	spec := testSpec(t, 22, 19, 15, 3.3, 2.6)
	pts := testPoints(160, spec.Domain, 17)
	for _, kp := range polyKernelPairs {
		for _, alg := range []string{AlgPBSYM, AlgPBDISK, AlgPBBAR} {
			opt := Options{Threads: 1, Spatial: kp.sk, Temporal: kp.tk}
			assertMatchesDense(t, kp.name+"/"+alg, alg, pts, spec, opt)
		}
	}
}

// assertMatchesDense asserts that alg's grid is bitwise the dense oracle's
// and returns it.
func assertMatchesDense(t *testing.T, label, alg string, pts []grid.Point, spec grid.Spec, opt Options) *grid.Grid {
	t.Helper()
	dense, err := denseEstimate(alg, pts, spec, opt)
	if err != nil {
		t.Fatalf("%s: dense: %v", label, err)
	}
	if dense.Grid.Sum() <= 0 {
		t.Fatalf("%s: empty dense grid", label)
	}
	res, err := Estimate(alg, pts, spec, opt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertBitwise(t, label, dense.Grid, res.Grid)
	return res.Grid
}

// TestGenericKernelFallback: kernels without the specialization hook take
// the generic span path and still match the dense oracle bitwise.
func TestGenericKernelFallback(t *testing.T) {
	spec := testSpec(t, 18, 18, 12, 3, 2.2)
	pts := testPoints(120, spec.Domain, 23)
	kernels := []struct {
		sk kernel.Spatial
		tk kernel.Temporal
	}{
		{kernel.Cone2D{}, kernel.Triangle1D{}},
		{kernel.NewTruncGauss2D(1.0 / 3), kernel.NewTruncGauss1D(1.0 / 3)},
	}
	for _, kp := range kernels {
		c := newCtx(pts, spec, Options{Spatial: kp.sk, Temporal: kp.tk}.withDefaults())
		if c.skFast || c.tkFast {
			t.Fatalf("%s/%s unexpectedly specialized", kp.sk.Name(), kp.tk.Name())
		}
		opt := Options{Threads: 1, Spatial: kp.sk, Temporal: kp.tk}
		assertMatchesDense(t, kp.sk.Name(), AlgPBSYM, pts, spec, opt)
	}
}

// TestSpanEdgeCases covers the geometric corner cases of span computation:
// points on the grid border and bandwidths wider than the whole grid, whose
// influence boxes reach far past the bounds.
func TestSpanEdgeCases(t *testing.T) {
	t.Run("border-points", func(t *testing.T) {
		spec := testSpec(t, 12, 10, 8, 3, 2)
		pts := []grid.Point{
			{X: 0, Y: 0, T: 0},
			{X: 12, Y: 10, T: 8}, // exactly on the open upper bound
			{X: 0, Y: 10, T: 4},
			{X: 11.9999, Y: 0.0001, T: 7.9999},
			{X: 0.0001, Y: 9.9999, T: 0.0001},
		}
		compareDenseAndVB(t, pts, spec, Options{})
	})
	t.Run("bandwidth-wider-than-grid", func(t *testing.T) {
		// hs spans 3x the domain: every influence box clips to the whole
		// grid and every voxel is inside the disk.
		spec := testSpec(t, 9, 8, 7, 27, 15)
		pts := testPoints(40, spec.Domain, 31)
		compareDenseAndVB(t, pts, spec, Options{})
	})
}

// compareDenseAndVB asserts that PB-SYM matches the dense oracle bitwise
// and tracks the voxel-based gold standard.
func compareDenseAndVB(t *testing.T, pts []grid.Point, spec grid.Spec, opt Options) {
	t.Helper()
	opt.Threads = 1
	ref, err := Estimate(AlgVB, pts, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := assertMatchesDense(t, "pb-sym", AlgPBSYM, pts, spec, opt)
	if d := maxRelDiff(ref.Grid, got); d > 1e-11 {
		t.Errorf("pb-sym differs from VB by %g", d)
	}
}

// TestEnginesBitwiseQuick drives the oracle comparison with random single
// points and bandwidths, the regime where span endpoints hit voxel centers
// in unusual ways.
func TestEnginesBitwiseQuick(t *testing.T) {
	check := func(px, py, pt uint16, hsN, htN uint8) bool {
		spec := testSpec(t, 13, 11, 9, 1+float64(hsN%6), 1+float64(htN%4))
		p := []grid.Point{{
			X: spec.Domain.GX * float64(px) / 65536,
			Y: spec.Domain.GY * float64(py) / 65536,
			T: spec.Domain.GT * float64(pt) / 65536,
		}}
		opt := Options{Threads: 1}
		dense, err := denseEstimate(AlgPBSYM, p, spec, opt)
		if err != nil {
			return false
		}
		res, err := Estimate(AlgPBSYM, p, spec, opt)
		if err != nil {
			return false
		}
		for i := range dense.Grid.Data {
			if dense.Grid.Data[i] != res.Grid.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestSortedUnsortedAgree: the Morton pre-pass only reorders the summation,
// so sorted and unsorted runs agree to fp tolerance (and the parallel
// algorithms keep agreeing with VB either way).
func TestSortedUnsortedAgree(t *testing.T) {
	spec := testSpec(t, 24, 20, 14, 3, 2)
	pts := testPoints(400, spec.Domain, 47)
	for _, alg := range []string{AlgPBSYM, AlgPBSYMDR, AlgPBSYMDD, AlgPBSYMPDSCHED} {
		sorted, err := Estimate(alg, pts, spec, Options{Threads: 4, Decomp: [3]int{3, 3, 3}})
		if err != nil {
			t.Fatal(err)
		}
		unsorted, err := Estimate(alg, pts, spec, Options{
			Threads: 4, Decomp: [3]int{3, 3, 3}, NoSort: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if d := maxRelDiff(sorted.Grid, unsorted.Grid); d > 1e-12 {
			t.Errorf("%s: sorted vs unsorted differ by %g", alg, d)
		}
	}
}

// TestMortonOrderIsDeterministicPerEngine: the sort must not break
// sequential determinism (ties keep input order).
func TestMortonOrderIsDeterministicPerEngine(t *testing.T) {
	spec := testSpec(t, 16, 14, 10, 3, 2)
	// Duplicate coordinates exercise tie-breaking.
	pts := append(testPoints(100, spec.Domain, 3), testPoints(100, spec.Domain, 3)...)
	a, err := Estimate(AlgPBSYM, pts, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(AlgPBSYM, pts, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "repeat-run", a.Grid, b.Grid)
}
