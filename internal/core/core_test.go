package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/grid"
	"repro/internal/kernel"
)

func testSpec(t *testing.T, gx, gy, gt int, hs, ht float64) grid.Spec {
	t.Helper()
	s, err := grid.NewSpec(grid.Domain{
		GX: float64(gx), GY: float64(gy), GT: float64(gt),
	}, 1, 1, hs, ht)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testPoints(n int, d grid.Domain, seed uint64) []grid.Point {
	return data.Epidemic{Clusters: 6}.Generate(n, d, seed)
}

// maxRelDiff returns the largest relative voxel difference between two
// grids (relative to the largest absolute value seen).
func maxRelDiff(a, b *grid.Grid) float64 {
	scale := 0.0
	for _, v := range a.Data {
		if math.Abs(v) > scale {
			scale = math.Abs(v)
		}
	}
	if scale == 0 {
		scale = 1
	}
	worst := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i]-b.Data[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// TestAllAlgorithmsAgreeWithVB is the central correctness property: every
// algorithm in the family computes the same density field as the
// voxel-based gold standard, across bandwidth regimes, thread counts and
// decompositions.
func TestAllAlgorithmsAgreeWithVB(t *testing.T) {
	shapes := []struct {
		name       string
		gx, gy, gt int
		hs, ht     float64
		n          int
	}{
		{"tiny-bandwidth", 15, 13, 11, 1, 1, 120},
		{"medium", 20, 18, 14, 3.5, 2.5, 200},
		{"large-bandwidth", 16, 16, 12, 6, 5, 150},
		{"flat-time", 24, 20, 4, 4, 1.5, 180},
		{"deep-time", 8, 8, 40, 2, 7, 160},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			spec := testSpec(t, sh.gx, sh.gy, sh.gt, sh.hs, sh.ht)
			pts := testPoints(sh.n, spec.Domain, 42)
			ref, err := Estimate(AlgVB, pts, spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Grid.Sum() <= 0 {
				t.Fatal("reference grid is empty; test is vacuous")
			}
			for _, alg := range Algorithms()[1:] {
				for _, opt := range []Options{
					{Threads: 1, Decomp: [3]int{2, 2, 2}},
					{Threads: 4, Decomp: [3]int{3, 3, 3}},
					{Threads: 3, Decomp: [3]int{1, 1, 1}},
					{Threads: 8, Decomp: [3]int{8, 8, 8}},
				} {
					res, err := Estimate(alg, pts, spec, opt)
					if err != nil {
						t.Fatalf("%s: %v", alg, err)
					}
					if d := maxRelDiff(ref.Grid, res.Grid); d > 1e-11 {
						t.Errorf("%s (threads=%d decomp=%v) differs from VB by %g",
							alg, opt.Threads, opt.Decomp, d)
					}
				}
			}
		})
	}
}

// TestAgreementAcrossGenerators exercises every synthetic dataset shape.
func TestAgreementAcrossGenerators(t *testing.T) {
	spec := testSpec(t, 18, 16, 12, 3, 2)
	gens := []data.Generator{
		data.Epidemic{}, data.SocialMedia{}, data.SparseGlobal{},
		data.Hotspot{}, data.Uniform{},
	}
	for _, gen := range gens {
		t.Run(gen.Name(), func(t *testing.T) {
			pts := gen.Generate(150, spec.Domain, 7)
			ref, err := Estimate(AlgPBSYM, pts, spec, Options{Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range []string{AlgVB, AlgPBSYMDD, AlgPBSYMPDSCHED, AlgPBSYMPDSCHREP} {
				res, err := Estimate(alg, pts, spec, Options{Threads: 4, Decomp: [3]int{4, 4, 4}})
				if err != nil {
					t.Fatalf("%s: %v", alg, err)
				}
				if d := maxRelDiff(ref.Grid, res.Grid); d > 1e-11 {
					t.Errorf("%s differs by %g on %s", alg, d, gen.Name())
				}
			}
		})
	}
}

// TestNonUniformResolutionAgreement uses fractional resolutions so voxel
// centers do not coincide with integer coordinates.
func TestNonUniformResolutionAgreement(t *testing.T) {
	spec, err := grid.NewSpec(grid.Domain{X0: -4, Y0: 10, T0: 100, GX: 9.3, GY: 7.1, GT: 11.7},
		0.61, 1.37, 2.2, 3.1)
	if err != nil {
		t.Fatal(err)
	}
	pts := testPoints(130, spec.Domain, 99)
	ref, err := Estimate(AlgVB, pts, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms()[1:] {
		res, err := Estimate(alg, pts, spec, Options{Threads: 4, Decomp: [3]int{2, 3, 2}})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if d := maxRelDiff(ref.Grid, res.Grid); d > 1e-11 {
			t.Errorf("%s differs from VB by %g", alg, d)
		}
	}
}

// TestKernelVariantsAgree runs the agreement check under non-default
// kernels (the separability optimization must hold for any product kernel).
func TestKernelVariantsAgree(t *testing.T) {
	spec := testSpec(t, 14, 14, 10, 3, 2)
	pts := testPoints(100, spec.Domain, 5)
	kernels := []struct {
		sk kernel.Spatial
		tk kernel.Temporal
	}{
		{kernel.Quartic2D{}, kernel.Quartic1D{}},
		{kernel.Uniform2D{}, kernel.Triangle1D{}},
		{kernel.NewTruncGauss2D(1.0 / 3), kernel.NewTruncGauss1D(1.0 / 3)},
	}
	for _, k := range kernels {
		opt := Options{Spatial: k.sk, Temporal: k.tk}
		ref, err := Estimate(AlgVB, pts, spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []string{AlgPB, AlgPBSYM, AlgPBSYMDR, AlgPBSYMPDREP} {
			o := opt
			o.Threads = 4
			o.Decomp = [3]int{2, 2, 2}
			res, err := Estimate(alg, pts, spec, o)
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if d := maxRelDiff(ref.Grid, res.Grid); d > 1e-11 {
				t.Errorf("%s with %s/%s differs by %g", alg, k.sk.Name(), k.tk.Name(), d)
			}
		}
	}
}

// TestMassConservation: with fine resolution and interior points, the
// Riemann sum of the estimate approximates 1 (each of the n points
// integrates to 1/n).
func TestMassConservation(t *testing.T) {
	spec := testSpec(t, 60, 60, 40, 9, 7)
	// Keep points away from the boundary by more than the bandwidths.
	inner := grid.Domain{X0: 12, Y0: 12, T0: 9, GX: 36, GY: 36, GT: 22}
	pts := data.Uniform{}.Generate(300, inner, 3)
	res, err := Estimate(AlgPBSYM, pts, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mass := res.Grid.Sum() * spec.SRes * spec.SRes * spec.TRes
	if math.Abs(mass-1) > 0.02 {
		t.Errorf("total mass = %.4f, want 1 +- 0.02", mass)
	}
}

// TestSequentialDeterminism: sequential algorithms are bit-reproducible.
func TestSequentialDeterminism(t *testing.T) {
	spec := testSpec(t, 16, 14, 10, 3, 2)
	pts := testPoints(150, spec.Domain, 11)
	for _, alg := range SequentialAlgorithms() {
		a, err := Estimate(alg, pts, spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Estimate(alg, pts, spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Grid.Data {
			if a.Grid.Data[i] != b.Grid.Data[i] {
				t.Fatalf("%s not deterministic at voxel %d", alg, i)
			}
		}
	}
}

// TestDDBitwiseEqualsPBSYM: PB-SYM-DD is bitwise sequential PB-SYM for
// every worker count and decomposition, because each voxel has one owner
// cell and that cell applies its points in sorted order. PD and PD-SCHED
// hand a voxel its points cell by cell in color order, so they are not in
// the table.
func TestDDBitwiseEqualsPBSYM(t *testing.T) {
	specs := []grid.Spec{
		testSpec(t, 26, 24, 18, 7, 5),
		testSpec(t, 22, 19, 15, 3.3, 2.6),
		testSpec(t, 40, 33, 21, 2.2, 1.7),
	}
	for si, spec := range specs {
		pts := testPoints(160, spec.Domain, uint64(101+si))
		ref, err := Estimate(AlgPBSYM, pts, spec, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2, 4} {
			for _, dc := range [][3]int{{1, 1, 1}, {2, 2, 2}, {3, 2, 5}, {5, 5, 5}} {
				res, err := Estimate(AlgPBSYMDD, pts, spec, Options{Threads: threads, Decomp: dc})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("spec %d/P%d/%v", si, threads, dc)
				assertBitwise(t, label, ref.Grid, res.Grid)
			}
		}
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	spec := testSpec(t, 4, 4, 4, 1, 1)
	if _, err := Estimate("nope", nil, spec, Options{}); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestEmptyPointSet(t *testing.T) {
	spec := testSpec(t, 8, 8, 8, 2, 2)
	for _, alg := range Algorithms() {
		res, err := Estimate(alg, nil, spec, Options{Threads: 2, Decomp: [3]int{2, 2, 2}})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Grid.Sum() != 0 {
			t.Errorf("%s: empty input must give a zero grid", alg)
		}
	}
}

func TestSinglePoint(t *testing.T) {
	spec := testSpec(t, 12, 12, 12, 3, 3)
	pts := []grid.Point{{X: 6.2, Y: 5.9, T: 6.1}}
	ref, err := Estimate(AlgVB, pts, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms()[1:] {
		res, err := Estimate(alg, pts, spec, Options{Threads: 4, Decomp: [3]int{2, 2, 2}})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if d := maxRelDiff(ref.Grid, res.Grid); d > 1e-12 {
			t.Errorf("%s differs by %g", alg, d)
		}
	}
}

// TestBoundaryPoints: events exactly on domain corners and edges must not
// panic and must agree across algorithms.
func TestBoundaryPoints(t *testing.T) {
	spec := testSpec(t, 10, 10, 10, 3, 3)
	pts := []grid.Point{
		{X: 0, Y: 0, T: 0},
		{X: 10, Y: 10, T: 10}, // exactly on the open upper bound
		{X: 0, Y: 10, T: 5},
		{X: 9.9999, Y: 0.0001, T: 9.9999},
		{X: 5, Y: 5, T: 5},
	}
	ref, err := Estimate(AlgVB, pts, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms()[1:] {
		res, err := Estimate(alg, pts, spec, Options{Threads: 2, Decomp: [3]int{2, 2, 2}})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if d := maxRelDiff(ref.Grid, res.Grid); d > 1e-12 {
			t.Errorf("%s differs by %g", alg, d)
		}
	}
}

// TestBudgetOOM reproduces the paper's out-of-memory behaviour: domain
// replication needs P times the grid memory, so a budget that fits the
// plain grid but not P replicas must fail DR while PB-SYM succeeds.
func TestBudgetOOM(t *testing.T) {
	spec := testSpec(t, 32, 32, 32, 3, 3)
	pts := testPoints(100, spec.Domain, 1)
	budget := grid.NewBudget(2 * spec.Bytes())

	res, err := Estimate(AlgPBSYM, pts, spec, Options{Budget: budget})
	if err != nil {
		t.Fatalf("PB-SYM should fit: %v", err)
	}
	res.Grid.Release()
	if budget.Used() != 0 {
		t.Errorf("budget not returned after Release: %d", budget.Used())
	}

	_, err = Estimate(AlgPBSYMDR, pts, spec, Options{Threads: 8, Budget: budget})
	if !errors.Is(err, grid.ErrMemoryBudget) {
		t.Fatalf("DR with 8 threads should exceed 2-grid budget, got %v", err)
	}
	if budget.Used() != 0 {
		t.Errorf("budget leaked after failed DR: %d bytes", budget.Used())
	}
}

// TestPDRepOOMOnCoarseDecomp mirrors Figure 14: with a 1x1x1 decomposition
// the replication buffers replicate the entire domain, so a tight budget
// fails exactly like PB-SYM-DR.
func TestPDRepOOMOnCoarseDecomp(t *testing.T) {
	spec := testSpec(t, 24, 24, 24, 2, 2)
	// Very clustered points -> long critical path -> heavy replication.
	pts := data.Epidemic{Clusters: 1}.Generate(4000, spec.Domain, 5)
	budget := grid.NewBudget(2 * spec.Bytes())
	_, err := Estimate(AlgPBSYMPDREP, pts, spec, Options{
		Threads: 8, Decomp: [3]int{1, 1, 1}, Budget: budget,
	})
	if !errors.Is(err, grid.ErrMemoryBudget) {
		t.Fatalf("expected ErrMemoryBudget, got %v", err)
	}
	if budget.Used() != 0 {
		t.Errorf("budget leaked: %d bytes", budget.Used())
	}
}

// TestAdaptiveBandwidth exercises the future-work extension: per-point
// bandwidth scaling. All PB-family algorithms must agree with VB (which
// evaluates the same per-point geometry directly).
func TestAdaptiveBandwidth(t *testing.T) {
	spec := testSpec(t, 16, 16, 12, 3, 2)
	pts := testPoints(120, spec.Domain, 13)
	adaptive := func(p grid.Point) float64 {
		// Larger bandwidth in the western half of the domain.
		if p.X < spec.Domain.X0+spec.Domain.GX/2 {
			return 1.6
		}
		return 0.7
	}
	opt := Options{AdaptiveBandwidth: adaptive}
	ref, err := Estimate(AlgVB, pts, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Grid.Sum() <= 0 {
		t.Fatal("adaptive reference empty")
	}
	for _, alg := range Algorithms()[1:] {
		o := opt
		o.Threads = 4
		o.Decomp = [3]int{3, 3, 3}
		res, err := Estimate(alg, pts, spec, o)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if d := maxRelDiff(ref.Grid, res.Grid); d > 1e-11 {
			t.Errorf("%s adaptive differs by %g", alg, d)
		}
	}
	// Mass is still conserved per point (norm uses per-point bandwidths).
	inner := grid.Domain{X0: 6, Y0: 6, T0: 4, GX: 4, GY: 4, GT: 4}
	ipts := data.Uniform{}.Generate(50, inner, 3)
	bigSpec := testSpec(t, 64, 64, 48, 5, 5)
	res, err := Estimate(AlgPBSYM, ipts, bigSpec, Options{
		AdaptiveBandwidth: func(p grid.Point) float64 { return 1.3 },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Points are 6+ from the low boundary but bandwidth is 6.5; allow a
	// slightly looser tolerance for edge loss.
	mass := res.Grid.Sum()
	if math.Abs(mass-1) > 0.05 {
		t.Errorf("adaptive mass = %.4f, want ~1", mass)
	}
}

// TestPhasesRecorded: algorithms must report their phase timings, and the
// phases an algorithm does not have must stay zero.
func TestPhasesRecorded(t *testing.T) {
	spec := testSpec(t, 20, 20, 16, 3, 2)
	pts := testPoints(500, spec.Domain, 21)

	res, err := Estimate(AlgPBSYM, pts, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases.Compute <= 0 {
		t.Error("PB-SYM compute phase not recorded")
	}
	if res.Phases.Reduce != 0 {
		t.Error("PB-SYM should have no reduce phase")
	}
	if res.Phases.Bin <= 0 {
		t.Error("PB-SYM bin phase (Morton locality sort) not recorded")
	}
	unsorted, err := Estimate(AlgPBSYM, pts, spec, Options{NoSort: true})
	if err != nil {
		t.Fatal(err)
	}
	if unsorted.Phases.Bin != 0 {
		t.Error("NoSort run should not record a bin phase")
	}

	res, err = Estimate(AlgPBSYMDR, pts, spec, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases.Reduce <= 0 {
		t.Error("DR reduce phase not recorded")
	}

	res, err = Estimate(AlgPBSYMDD, pts, spec, Options{Threads: 4, Decomp: [3]int{4, 4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases.Bin <= 0 {
		t.Error("DD bin phase not recorded")
	}

	res, err = Estimate(AlgPBSYMPDSCHED, pts, spec, Options{Threads: 4, Decomp: [3]int{4, 4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases.Plan <= 0 {
		t.Error("PD-SCHED plan phase not recorded")
	}
	if res.Phases.Total() <= 0 {
		t.Error("total must be positive")
	}
}

// TestStatsExposed checks the work/structure statistics the figures need.
func TestStatsExposed(t *testing.T) {
	spec := testSpec(t, 30, 30, 20, 2, 2)
	pts := testPoints(800, spec.Domain, 31)

	// DD: point assignments measure cylinder cuts.
	dd, err := Estimate(AlgPBSYMDD, pts, spec, Options{Threads: 2, Decomp: [3]int{4, 4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if dd.Stats.PointAssignments < int64(len(pts)) {
		t.Errorf("DD assignments %d < n %d", dd.Stats.PointAssignments, len(pts))
	}
	ddFine, err := Estimate(AlgPBSYMDD, pts, spec, Options{Threads: 2, Decomp: [3]int{8, 8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if ddFine.Stats.PointAssignments <= dd.Stats.PointAssignments {
		t.Error("finer decomposition should replicate more points")
	}
	if ddFine.Stats.Updates <= 0 || ddFine.Stats.SKEvals <= 0 {
		t.Error("work counters not populated")
	}

	// PD: schedule structure.
	pd, err := Estimate(AlgPBSYMPD, pts, spec, Options{Threads: 4, Decomp: [3]int{4, 4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if pd.Stats.Cells <= 0 || pd.Stats.Colors <= 0 {
		t.Errorf("PD stats incomplete: %+v", pd.Stats)
	}
	if pd.Stats.CriticalPathRel <= 0 || pd.Stats.CriticalPathRel > 1 {
		t.Errorf("relative critical path %g outside (0,1]", pd.Stats.CriticalPathRel)
	}
	sched, err := Estimate(AlgPBSYMPDSCHED, pts, spec, Options{Threads: 4, Decomp: [3]int{4, 4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Stats.CriticalPath > pd.Stats.CriticalPath*1.05 {
		t.Errorf("SCHED critical path %g much worse than checkerboard %g",
			sched.Stats.CriticalPath, pd.Stats.CriticalPath)
	}

	// REP on clustered data must replicate and record buffers.
	cl := data.Epidemic{Clusters: 1}.Generate(5000, spec.Domain, 77)
	rep, err := Estimate(AlgPBSYMPDSCHREP, cl, spec, Options{Threads: 8, Decomp: [3]int{3, 3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.ReplicatedCells == 0 || rep.Stats.MaxReplication < 2 {
		t.Errorf("expected replication on clustered data: %+v", rep.Stats)
	}
	if rep.Stats.BufferBytes <= 0 {
		t.Error("replication buffers not accounted")
	}
	if rep.Stats.CriticalPath >= pdCriticalPath(t, cl, spec) {
		t.Error("replication did not shorten the critical path")
	}
}

func pdCriticalPath(t *testing.T, pts []grid.Point, spec grid.Spec) float64 {
	t.Helper()
	res, err := Estimate(AlgPBSYMPDSCHED, pts, spec, Options{Threads: 8, Decomp: [3]int{3, 3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats.CriticalPath
}

// TestPDAdjustsDecomposition: requesting a decomposition finer than the
// bandwidth allows must be adjusted, exactly like Figure 11's caption.
func TestPDAdjustsDecomposition(t *testing.T) {
	spec := testSpec(t, 20, 20, 20, 4, 4) // min cell 9 voxels -> max 2 cells
	pts := testPoints(100, spec.Domain, 3)
	res, err := Estimate(AlgPBSYMPD, pts, spec, Options{Threads: 4, Decomp: [3]int{64, 64, 64}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Decomp != [3]int{2, 2, 2} {
		t.Errorf("decomp = %v, want [2 2 2]", res.Stats.Decomp)
	}
	// DD keeps the requested decomposition (it cuts cylinders instead).
	res, err = Estimate(AlgPBSYMDD, pts, spec, Options{Threads: 4, Decomp: [3]int{10, 10, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Decomp != [3]int{10, 10, 10} {
		t.Errorf("DD decomp = %v, want [10 10 10]", res.Stats.Decomp)
	}
}

// TestResultMetadata: algorithm name and basic fields round-trip.
func TestResultMetadata(t *testing.T) {
	spec := testSpec(t, 8, 8, 8, 2, 2)
	pts := testPoints(50, spec.Domain, 2)
	res, err := Estimate(AlgPBSYMDD, pts, spec, Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgPBSYMDD || res.Stats.N != 50 || res.Stats.Threads != 3 {
		t.Errorf("metadata wrong: %+v", res.Stats)
	}
}
