package stkde_test

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/stkde"
	"repro/synth"
)

// Example demonstrates the basic estimation flow (see examples/quickstart
// for a fuller program).
func Example() {
	domain := stkde.Domain{GX: 1000, GY: 800, GT: 120}
	events := synth.Epidemic{}.Generate(2000, domain, 42)

	spec, err := stkde.NewSpec(domain, 10, 1, 50, 7)
	if err != nil {
		log.Fatal(err)
	}
	res, err := stkde.Estimate(stkde.AlgPBSYM, events, spec, stkde.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid %dx%dx%d\n", spec.Gx, spec.Gy, spec.Gt)
	fmt.Printf("mass %.2f\n", res.Grid.Sum()*spec.SRes*spec.SRes*spec.TRes)
	// Output:
	// grid 100x80x120
	// mass 1.00
}

func ExampleEstimate_parallel() {
	domain := stkde.Domain{GX: 200, GY: 200, GT: 60}
	events := synth.Hotspot{}.Generate(5000, domain, 7)
	spec, err := stkde.NewSpec(domain, 2, 1, 12, 5)
	if err != nil {
		log.Fatal(err)
	}
	seq, err := stkde.Estimate(stkde.AlgPBSYM, events, spec, stkde.Options{Threads: 1})
	if err != nil {
		log.Fatal(err)
	}
	par, err := stkde.Estimate(stkde.AlgPBSYMPDSCHED, events, spec, stkde.Options{
		Threads: 4, Decomp: [3]int{4, 4, 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	// Parallel strategies compute the same densities.
	same := true
	for i := range seq.Grid.Data {
		if math.Abs(seq.Grid.Data[i]-par.Grid.Data[i]) > 1e-12 {
			same = false
		}
	}
	fmt.Println("identical:", same)
	// Output:
	// identical: true
}

func TestFacadeAlgorithmLists(t *testing.T) {
	if len(stkde.Algorithms()) != 12 {
		t.Errorf("expected 12 algorithms, got %d", len(stkde.Algorithms()))
	}
	par := stkde.ParallelAlgorithms()
	if len(core.SequentialAlgorithms())+len(par) != 12 {
		t.Error("sequential + parallel must cover all algorithms")
	}
	for _, a := range par {
		if !stkde.ValidAlgorithm(a) {
			t.Errorf("parallel algorithm %q is not valid", a)
		}
	}
}

func TestFacadeKernels(t *testing.T) {
	if stkde.Kernels.Epanechnikov2D.Eval(0, 0) <= 0 {
		t.Error("default spatial kernel broken")
	}
	if stkde.SpatialKernelByName("quartic2d") == nil {
		t.Error("kernel lookup broken")
	}
	if stkde.TemporalKernelByName("bogus") != nil {
		t.Error("unknown kernel should be nil")
	}
}

func TestFacadeBudgetError(t *testing.T) {
	domain := stkde.Domain{GX: 64, GY: 64, GT: 64}
	spec, err := stkde.NewSpec(domain, 1, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pts := synth.Uniform{}.Generate(100, domain, 1)
	_, err = stkde.Estimate(stkde.AlgPBSYMDR, pts, spec, stkde.Options{
		Threads: 4,
		Budget:  stkde.NewBudget(spec.Bytes()), // one grid only
	})
	if !errors.Is(err, stkde.ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget, got %v", err)
	}
}

func TestFacadeIO(t *testing.T) {
	domain := stkde.Domain{GX: 30, GY: 20, GT: 10}
	pts := synth.Uniform{}.Generate(50, domain, 3)

	var csv bytes.Buffer
	if err := stkde.WritePointsCSV(&csv, pts); err != nil {
		t.Fatal(err)
	}
	back, err := stkde.ReadPointsCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(pts) {
		t.Fatalf("round trip lost points: %d vs %d", len(back), len(pts))
	}

	spec, err := stkde.NewSpec(domain, 1, 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stkde.Estimate(stkde.AlgPBSYM, pts, spec, stkde.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := stkde.WriteGridSnapshot(&snap, res.Grid); err != nil {
		t.Fatal(err)
	}
	g2, err := stkde.ReadGridSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Sum() != res.Grid.Sum() {
		t.Error("snapshot round trip changed densities")
	}
	var vtk, png bytes.Buffer
	if err := stkde.WriteVTK(&vtk, res.Grid, "t"); err != nil {
		t.Fatal(err)
	}
	if err := stkde.WritePNGSlice(&png, res.Grid, 5, 0, 0); err != nil {
		t.Fatal(err)
	}
	if vtk.Len() == 0 || png.Len() == 0 {
		t.Error("exports produced no data")
	}
}

func TestAutoEstimate(t *testing.T) {
	domain := stkde.Domain{GX: 60, GY: 60, GT: 40}
	pts := synth.Epidemic{}.Generate(20000, domain, 5)
	spec, err := stkde.NewSpec(domain, 1, 1, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Compute-bound at two threads, with a budget under two grids so DR
	// is infeasible: the model picks DD or a PD strategy, and the run
	// must use the decomposition the model priced (8×8×8, shrunk for PD),
	// not the estimator's own default.
	budget := stkde.NewBudget(3 * spec.Bytes() / 2)
	res, err := stkde.AutoEstimate(pts, spec, stkde.Options{Threads: 2, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	d := grid.NewDecomp(spec, 8, 8, 8)
	switch res.Algorithm {
	case stkde.AlgPBSYMDD:
	case stkde.AlgPBSYMPD, stkde.AlgPBSYMPDSCHED, stkde.AlgPBSYMPDREP, stkde.AlgPBSYMPDSCHEDREP:
		d = d.AdjustForPD()
	default:
		t.Fatalf("AutoEstimate picked %q, want DD or a PD strategy", res.Algorithm)
	}
	if want := [3]int{d.A, d.B, d.C}; res.Stats.Decomp != want {
		t.Errorf("%s ran decomposition %v, want the priced %v", res.Algorithm, res.Stats.Decomp, want)
	}
	// The result must agree with a direct PB-SYM run.
	ref, err := stkde.Estimate(stkde.AlgPBSYM, pts, spec, stkde.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range ref.Grid.Data {
		if d := math.Abs(ref.Grid.Data[i] - res.Grid.Data[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-12 {
		t.Errorf("AutoEstimate (%s) differs from PB-SYM by %g", res.Algorithm, worst)
	}
}

func TestPredictStrategies(t *testing.T) {
	domain := stkde.Domain{GX: 80, GY: 80, GT: 40}
	pts := synth.SocialMedia{}.Generate(30000, domain, 9)
	spec, err := stkde.NewSpec(domain, 1, 1, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	preds := stkde.PredictStrategies(pts, spec, 8, 0)
	if len(preds) < 5 {
		t.Fatalf("expected predictions for all strategies, got %d", len(preds))
	}
	for _, p := range preds {
		if p.Seconds <= 0 {
			t.Errorf("%s: non-positive prediction", p.Algorithm)
		}
	}
}
