package grid

import (
	"math"
	"math/rand"
	"testing"
)

// close9 is the ≤1e-9 agreement guarantee, scaled so it reads as a relative
// bound for large aggregates and an absolute one near zero.
func close9(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// randomGrid fills a grid with reproducible positive noise plus a few
// sharp peaks, so top-k and threshold queries have real structure.
func randomGrid(t *testing.T, rng *rand.Rand, gx, gy, gt float64) *Grid {
	t.Helper()
	s := mustSpec(t, Domain{X0: -3, Y0: 2, T0: 1, GX: gx, GY: gy, GT: gt}, 1, 1, 2, 2)
	g, err := NewGrid(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		g.Data[i] = rng.Float64()
	}
	for p := 0; p < 1+len(g.Data)/64; p++ {
		g.Data[rng.Intn(len(g.Data))] = 10 + 10*rng.Float64()
	}
	// Exact ties exercise the index tie-breaks.
	if len(g.Data) > 16 {
		g.Data[3] = 10.5
		g.Data[len(g.Data)-5] = 10.5
	}
	return g
}

// randomBox draws a box, sometimes degenerate (1 voxel) or the full domain,
// sometimes hanging over the grid edge so clipping is exercised.
func randomBox(rng *rand.Rand, s Spec) Box {
	switch rng.Intn(5) {
	case 0: // single voxel
		x, y, tt := rng.Intn(s.Gx), rng.Intn(s.Gy), rng.Intn(s.Gt)
		return Box{x, x, y, y, tt, tt}
	case 1: // full domain
		return s.Bounds()
	case 2: // overhanging
		return Box{-2, s.Gx, -1, s.Gy / 2, s.Gt / 3, s.Gt + 3}
	}
	x0, y0, t0 := rng.Intn(s.Gx), rng.Intn(s.Gy), rng.Intn(s.Gt)
	return Box{x0, x0 + rng.Intn(s.Gx-x0), y0, y0 + rng.Intn(s.Gy-y0), t0, t0 + rng.Intn(s.Gt-t0)}
}

func TestPyramidBoxMassMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]float64{{5, 4, 3}, {17, 9, 23}, {33, 31, 40}} {
		g := randomGrid(t, rng, dims[0], dims[1], dims[2])
		py, err := NewPyramid(g, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			b := randomBox(rng, g.Spec)
			want := g.BoxMass(b)
			got := py.BoxMass(b)
			if !close9(got, want) {
				t.Fatalf("grid %v box %+v: pyramid mass %g, naive %g", dims, b, got, want)
			}
		}
		if got := py.BoxMass(Box{2, 1, 0, 0, 0, 0}); got != 0 {
			t.Fatalf("empty box mass = %g, want 0", got)
		}
	}
}

func TestPyramidTopKMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dims := range [][3]float64{{5, 4, 3}, {20, 11, 17}, {40, 33, 29}} {
		g := randomGrid(t, rng, dims[0], dims[1], dims[2])
		py, err := NewPyramid(g, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, 3, 10, 100, g.Spec.Voxels(), g.Spec.Voxels() + 7} {
			want := g.TopK(k)
			got := py.TopK(k)
			if len(got) != len(want) {
				t.Fatalf("dims %v k=%d: pyramid returned %d voxels, naive %d", dims, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("dims %v k=%d rank %d: pyramid %+v, naive %+v", dims, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestPyramidThresholdMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dims := range [][3]float64{{5, 4, 3}, {20, 11, 17}, {40, 33, 29}} {
		g := randomGrid(t, rng, dims[0], dims[1], dims[2])
		py, err := NewPyramid(g, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range []float64{-1, 0.5, 0.95, 9.99, 10.5, 25} {
			want := g.Threshold(level)
			got := py.Threshold(level)
			if len(got) != len(want) {
				t.Fatalf("dims %v level %g: pyramid %d boxes, naive %d", dims, level, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("dims %v level %g box %d: pyramid %+v, naive %+v", dims, level, i, got[i], want[i])
				}
			}
		}
	}
}

func TestPyramidBudgetAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := randomGrid(t, rng, 10, 9, 8)
	want := PyramidBytes(g.Spec)
	b := NewBudget(want)
	py, err := NewPyramid(g, 0, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Used(); got != want {
		t.Fatalf("budget used = %d, want %d", got, want)
	}
	if _, err := NewPyramid(g, 0, b); err == nil {
		t.Fatal("second pyramid fit in a one-pyramid budget")
	}
	py.Release()
	if got := b.Used(); got != 0 {
		t.Fatalf("budget used after Release = %d, want 0", got)
	}
}

// TestPyramidBuildDeterministic proves the parallel build is bitwise
// independent of the worker count (every cell is accumulated by exactly
// one worker in sequential axis order).
func TestPyramidBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGrid(t, rng, 37, 26, 31)
	seq, err := NewPyramid(g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 8} {
		par, err := NewPyramid(g, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq.svt {
			if par.svt[i] != seq.svt[i] {
				t.Fatalf("p=%d: svt[%d] = %g, sequential %g", p, i, par.svt[i], seq.svt[i])
			}
		}
		for i := range seq.blockMax {
			if par.blockMax[i] != seq.blockMax[i] {
				t.Fatalf("p=%d: blockMax[%d] differs", p, i)
			}
		}
	}
}

// Sequential references for the parallelized analysis helpers: the exact
// pre-parallelization loops. The helpers partition work over output cells,
// so the parallel results must be bitwise identical to these.

func temporalProfileSeq(g *Grid) []float64 {
	s := g.Spec
	out := make([]float64, s.Gt)
	cell := s.SRes * s.SRes
	for X := 0; X < s.Gx; X++ {
		for Y := 0; Y < s.Gy; Y++ {
			row := g.Data[g.Idx(X, Y, 0) : g.Idx(X, Y, 0)+s.Gt]
			for T, v := range row {
				out[T] += v * cell
			}
		}
	}
	return out
}

func TestAnalysisHelpersBitwiseSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Large enough that par.BlocksMin actually fans out on multicore hosts.
	g := randomGrid(t, rng, 48, 41, 37)
	wantP := temporalProfileSeq(g)
	gotP := g.TemporalProfile()
	for i := range wantP {
		if gotP[i] != wantP[i] {
			t.Fatalf("TemporalProfile[%d] = %g, sequential %g (not bitwise)", i, gotP[i], wantP[i])
		}
	}
}

func benchGrid(b *testing.B) *Grid {
	b.Helper()
	s, err := NewSpec(Domain{GX: 64, GY: 64, GT: 64}, 1, 1, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGrid(s, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := range g.Data {
		g.Data[i] = rng.Float64()
	}
	return g
}

// BenchmarkTopK measures the concrete-heap selection scan. The previous
// container/heap implementation boxed every pushed candidate into an
// interface, allocating per push; the concrete heap allocates only the
// k-slot backing array and the output.
func BenchmarkTopK(b *testing.B) {
	g := benchGrid(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.TopK(32)
	}
}

// BenchmarkPyramidTopK is the same query answered through the block
// pyramid's best-first pruned scan.
func BenchmarkPyramidTopK(b *testing.B) {
	g := benchGrid(b)
	py, err := NewPyramid(g, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		py.TopK(32)
	}
}

// BenchmarkPyramidBoxMass contrasts the O(1) summed-volume lookup with the
// naive O(box) scan it replaces.
func BenchmarkPyramidBoxMass(b *testing.B) {
	g := benchGrid(b)
	py, err := NewPyramid(g, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	box := Box{3, 60, 2, 61, 1, 62}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		py.BoxMass(box)
	}
}

func BenchmarkGridBoxMass(b *testing.B) {
	g := benchGrid(b)
	box := Box{3, 60, 2, 61, 1, 62}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BoxMass(box)
	}
}
