package grid

import (
	"math"
	"math/rand"
	"sync"
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

// peakedGrid is a KDE-like cube: one smooth bump, so a top-k query
// touches a handful of blocks and every other block maximum is far below.
func peakedGrid(tb testing.TB, gx, gy, gt int) *Grid {
	tb.Helper()
	s, err := NewSpec(Domain{GX: float64(gx), GY: float64(gy), GT: float64(gt)}, 1, 1, 2, 2)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := NewGrid(s, nil)
	if err != nil {
		tb.Fatal(err)
	}
	cx, cy, ct := float64(gx)/3, float64(gy)/2, float64(gt)/2
	for X := 0; X < gx; X++ {
		for Y := 0; Y < gy; Y++ {
			for T := 0; T < gt; T++ {
				dx, dy, dt := float64(X)-cx, float64(Y)-cy, float64(T)-ct
				g.Data[(X*gy+Y)*gt+T] = math.Exp(-(dx*dx+dy*dy)/128 - dt*dt/18)
			}
		}
	}
	return g
}

// TestPyramidTopKTiesMatchNaive pins the build-time block order where it
// is all ties: a sparse cube queried past its nonzero support, where the
// zero-maximum blocks tie and the zero voxels must still come out by
// ascending flat index across blocks, and a constant plateau, where every
// block and every voxel ties.
func TestPyramidTopKTiesMatchNaive(t *testing.T) {
	newGrid := func(d Domain) *Grid {
		g, err := NewGrid(mustSpec(t, d, 1, 1, 2, 2), nil)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	sparse := newGrid(Domain{GX: 29, GY: 21, GT: 19})
	nonzero := []int{5, 4000, 4001, 7777, 11500}
	for _, i := range nonzero {
		sparse.Data[i] = 1 + float64(i%3)
	}
	support := len(nonzero)
	plateau := newGrid(Domain{GX: 20, GY: 17, GT: 11})
	for i := range plateau.Data {
		plateau.Data[i] = 0.25
	}
	for _, tc := range []struct {
		name string
		g    *Grid
		ks   []int
	}{
		{"sparse", sparse, []int{support, support + 1, support + 40, 600, sparse.Spec.Voxels()}},
		{"plateau", plateau, []int{1, 9, 100, 513, plateau.Spec.Voxels()}},
	} {
		py, err := NewPyramid(tc.g, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range tc.ks {
			want, got := tc.g.TopK(k), py.TopK(k)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: pyramid returned %d voxels, naive %d", tc.name, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d rank %d: pyramid %+v, naive %+v", tc.name, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPyramidTopKAllocs holds a cached pyramid's top-k to the selector and
// the answer: the block order is built once, so a call allocates no
// per-block scratch.
func TestPyramidTopKAllocs(t *testing.T) {
	py, err := NewPyramid(peakedGrid(t, 64, 48, 40), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() { py.TopK(10) }); got != 2 {
		t.Fatalf("Pyramid.TopK(10) made %.0f allocations, want 2 (selector and answer)", got)
	}
}

// TestPyramidTopKConcurrent runs top-k reads from several goroutines at
// once over one pyramid, as cached serving does: they share the
// read-only block order and must each get the sequential answer.
func TestPyramidTopKConcurrent(t *testing.T) {
	g := peakedGrid(t, 40, 33, 29)
	py, err := NewPyramid(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := g.TopK(50)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := py.TopK(50)
				if len(got) != len(want) {
					t.Errorf("pyramid returned %d voxels, naive %d", len(got), len(want))
					return
				}
				for r := range want {
					if got[r] != want[r] {
						t.Errorf("rank %d: pyramid %+v, naive %+v", r, got[r], want[r])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
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
	b.Free(py.Bytes())
	if got := b.Used(); got != 0 {
		t.Fatalf("budget used after freeing the pyramid's bytes = %d, want 0", got)
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
// pyramid's best-first pruned scan: on benchGrid's uniform noise, where
// the scan visits most blocks, and on a peaked cube of the serve-read
// benchmark's shape (326×151×42), where it visits a few.
func BenchmarkPyramidTopK(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    func(*testing.B) *Grid
	}{
		{"noise", benchGrid},
		{"peaked", func(b *testing.B) *Grid { return peakedGrid(b, 326, 151, 42) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			py, err := NewPyramid(bc.g(b), 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				py.TopK(32)
			}
		})
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
