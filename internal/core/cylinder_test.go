package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/kernel"
)

// TestGoldenSinglePoint pins the exact analytic density of one event at a
// voxel center: f = ks(0,0)*kt(0)/(n*hs^2*ht) with the paper's kernels.
func TestGoldenSinglePoint(t *testing.T) {
	spec := testSpec(t, 11, 11, 11, 2, 3)
	// Place the event exactly at the center of voxel (5,5,5).
	p := grid.Point{X: spec.CenterX(5), Y: spec.CenterY(5), T: spec.CenterT(5)}
	res, err := Estimate(AlgPBSYM, []grid.Point{p}, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := (2 / math.Pi) * 0.75 / (1 * 2 * 2 * 3)
	if got := res.Grid.At(5, 5, 5); math.Abs(got-want) > 1e-15 {
		t.Errorf("density at event = %g, want %g", got, want)
	}
	// One voxel over in x: dx=1, u=1/2 -> ks=(2/pi)(1-1/4); same t.
	want = (2 / math.Pi) * (1 - 0.25) * 0.75 / (2 * 2 * 3)
	if got := res.Grid.At(6, 5, 5); math.Abs(got-want) > 1e-15 {
		t.Errorf("density one voxel east = %g, want %g", got, want)
	}
	// Outside the spatial bandwidth: dx=2 = hs -> zero.
	if got := res.Grid.At(7, 5, 5); got != 0 {
		t.Errorf("density at bandwidth edge = %g, want 0", got)
	}
	// Outside the temporal bandwidth: dt=3 = ht -> kt(1) = 0.
	if got := res.Grid.At(5, 5, 8); got != 0 {
		t.Errorf("density at temporal edge = %g, want 0", got)
	}
}

// TestFillDiskBarMatchDirectEval: the cached invariants of the dense
// oracle must equal direct kernel evaluation at every offset.
func TestFillDiskBarMatchDirectEval(t *testing.T) {
	spec := testSpec(t, 20, 20, 16, 3.7, 2.9)
	pts := testPoints(1, spec.Domain, 5)
	c := newCtx(pts, spec, Options{}.withDefaults())
	sc := newScratch(&c)
	p := pts[0]
	g := c.geom(p)
	box := g.box
	nx, ny, nt := box.Dims()
	sc.ensure(nx, ny, nt)
	fillDiskDense(&c, p, g, box, sc)
	fillBarDense(&c, p, g, box, sc)

	sk := kernel.Epanechnikov2D{}
	tk := kernel.Epanechnikov1D{}
	i := 0
	for X := box.X0; X <= box.X1; X++ {
		for Y := box.Y0; Y <= box.Y1; Y++ {
			dx := spec.CenterX(X) - p.X
			dy := spec.CenterY(Y) - p.Y
			want := 0.0
			if dx*dx+dy*dy < g.hs2 {
				want = sk.Eval(dx*g.invHS, dy*g.invHS) * g.norm
			}
			if math.Abs(sc.disk[i]-want) > 1e-16 {
				t.Fatalf("disk[%d,%d] = %g, want %g", X, Y, sc.disk[i], want)
			}
			i++
		}
	}
	for j := 0; j <= box.T1-box.T0; j++ {
		dt := spec.CenterT(box.T0+j) - p.T
		want := 0.0
		if dt >= -g.ht && dt <= g.ht {
			want = tk.Eval(dt * g.invHT)
		}
		if math.Abs(sc.bar[j]-want) > 1e-16 {
			t.Fatalf("bar[%d] = %g, want %g", j, sc.bar[j], want)
		}
	}
}

// TestSpanFillMatchesDenseFill: the packed span layout must hold exactly
// the nonzero-support subset of the dense layout, bitwise.
func TestSpanFillMatchesDenseFill(t *testing.T) {
	spec := testSpec(t, 20, 20, 16, 3.7, 2.9)
	pts := testPoints(30, spec.Domain, 5)
	c := newCtx(pts, spec, Options{}.withDefaults())
	if !c.skFast || !c.tkFast {
		t.Fatal("default kernels must specialize")
	}
	dense := newScratch(&c)
	span := newScratch(&c)
	for _, p := range pts {
		g := c.geom(p)
		box := g.box
		nx, ny, nt := box.Dims()
		dense.ensure(nx, ny, nt)
		span.ensure(nx, ny, nt)
		fillDiskDense(&c, p, g, box, dense)
		fillBarDense(&c, p, g, box, dense)
		fillDisk(&c, p, g, box, span)
		fillBar(&c, p, g, box, span)

		off := 0
		for ix := 0; ix < nx; ix++ {
			lo, n := int(span.spanLo[ix]), int(span.spanN[ix])
			for iy := 0; iy < ny; iy++ {
				want := dense.disk[ix*ny+iy]
				if iy < lo || iy >= lo+n {
					// Outside the span the dense value must be zero.
					if want != 0 {
						t.Fatalf("span missed nonzero disk entry at (%d,%d): %g", ix, iy, want)
					}
					continue
				}
				if got := span.disk[off+iy-lo]; got != want {
					t.Fatalf("packed disk (%d,%d) = %g, want %g", ix, iy, got, want)
				}
			}
			off += n
		}
		for j := 0; j < nt; j++ {
			want := dense.bar[j]
			if j < span.barLo || j >= span.barLo+span.barN {
				if want != 0 {
					t.Fatalf("bar span missed nonzero entry at %d: %g", j, want)
				}
				continue
			}
			if got := span.bar[j-span.barLo]; got != want {
				t.Fatalf("packed bar %d = %g, want %g", j, got, want)
			}
		}
	}
}

// TestViewAddressing: grid views and box views must agree on voxel
// addressing.
func TestViewAddressing(t *testing.T) {
	spec := testSpec(t, 7, 6, 5, 1, 1)
	g, err := grid.NewGrid(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	gv := gridView(g)
	for X := 0; X < spec.Gx; X++ {
		for Y := 0; Y < spec.Gy; Y++ {
			row := gv.row(X, Y, 1, 3)
			row[0] += 1 // writes voxel (X,Y,1)
			if g.At(X, Y, 1) != 1 {
				t.Fatalf("grid view row mismatch at (%d,%d)", X, Y)
			}
			g.Set(X, Y, 1, 0)
		}
	}
	// Box view over a sub-box.
	b := grid.Box{X0: 2, X1: 4, Y0: 1, Y1: 3, T0: 1, T1: 2}
	buf := make([]float64, b.Count())
	bv := boxView(buf, b)
	bv.row(3, 2, 1, 2)[1] = 42 // voxel (3,2,2)
	// Index manually: ((3-2)*3 + (2-1))*2 + (2-1) = (3+1)*2+1 = 9.
	if buf[9] != 42 {
		t.Fatalf("box view addressing wrong: %v", buf)
	}
}

// TestScratchEnsureGrowth: ensure must grow capacity and preserve slicing.
func TestScratchEnsureGrowth(t *testing.T) {
	sc := &scratch{}
	sc.ensure(5, 2, 4)
	if len(sc.disk) != 10 || len(sc.bar) != 4 || len(sc.spanLo) != 5 ||
		len(sc.spanN) != 5 || len(sc.dy2) != 2 || len(sc.nv) != 2 || len(sc.nv2) != 2 {
		t.Fatalf("ensure sizes wrong: disk=%d bar=%d span=%d dy2=%d",
			len(sc.disk), len(sc.bar), len(sc.spanLo), len(sc.dy2))
	}
	sc.disk[9] = 1
	sc.ensure(1, 5, 2)
	if len(sc.disk) != 5 || len(sc.bar) != 2 || len(sc.spanN) != 1 || len(sc.nv2) != 5 {
		t.Fatalf("shrink sizes wrong: disk=%d bar=%d span=%d", len(sc.disk), len(sc.bar), len(sc.spanN))
	}
	sc.ensure(10, 10, 50)
	if len(sc.disk) != 100 || len(sc.bar) != 50 || len(sc.spanLo) != 10 || len(sc.dy2) != 10 {
		t.Fatalf("grow sizes wrong: disk=%d bar=%d span=%d", len(sc.disk), len(sc.bar), len(sc.spanLo))
	}
}

// TestApplyVariantsAgreePointwise: property test that all four apply
// kernels put identical density into the grid for random points and specs.
func TestApplyVariantsAgreePointwise(t *testing.T) {
	check := func(px, py, pt uint16, hsN, htN uint8) bool {
		spec := testSpec(t, 13, 11, 9, 1+float64(hsN%5), 1+float64(htN%4))
		p := grid.Point{
			X: spec.Domain.GX * float64(px) / 65536,
			Y: spec.Domain.GY * float64(py) / 65536,
			T: spec.Domain.GT * float64(pt) / 65536,
		}
		c := newCtx([]grid.Point{p}, spec, Options{}.withDefaults())
		bounds := spec.Bounds()
		grids := make([]*grid.Grid, 4)
		applies := []applyFn{applyPB, applyDisk, applyBar, applySym}
		for k, ap := range applies {
			g, err := grid.NewGrid(spec, nil)
			if err != nil {
				return false
			}
			sc := newScratch(&c)
			ap(gridView(g), &c, p, bounds, sc)
			grids[k] = g
		}
		for k := 1; k < 4; k++ {
			for i := range grids[0].Data {
				if math.Abs(grids[0].Data[i]-grids[k].Data[i]) > 1e-15 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkCountersOrdering: PB evaluates kernels per voxel, PB-SYM per
// invariant; the counters must reflect the separability claim (Section 3.2).
func TestWorkCountersOrdering(t *testing.T) {
	spec := testSpec(t, 30, 30, 20, 5, 4)
	pts := testPoints(200, spec.Domain, 9)
	pb, err := Estimate(AlgPB, pts, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sym, err := Estimate(AlgPBSYM, pts, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sym.Stats.SKEvals >= pb.Stats.SKEvals {
		t.Errorf("PB-SYM spatial evals %d not below PB's %d", sym.Stats.SKEvals, pb.Stats.SKEvals)
	}
	if sym.Stats.TKEvals >= pb.Stats.TKEvals {
		t.Errorf("PB-SYM temporal evals %d not below PB's %d", sym.Stats.TKEvals, pb.Stats.TKEvals)
	}
	// And the disk variant only saves spatial evaluations.
	disk, err := Estimate(AlgPBDISK, pts, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if disk.Stats.SKEvals >= pb.Stats.SKEvals {
		t.Error("PB-DISK should evaluate fewer spatial kernels than PB")
	}
	if disk.Stats.TKEvals < pb.Stats.TKEvals {
		t.Error("PB-DISK should not evaluate fewer temporal kernels than PB")
	}
}

func TestAutoDecomp(t *testing.T) {
	spec := testSpec(t, 100, 100, 100, 2, 2)
	opt := Options{Threads: 4}.withDefaults()
	d := opt.autoDecomp(spec)
	if d[0] < 2 || d[0] != d[1] || d[1] != d[2] {
		t.Errorf("auto decomposition %v not a sensible cube", d)
	}
	opt.Decomp = [3]int{3, 4, 5}
	if got := opt.autoDecomp(spec); got != [3]int{3, 4, 5} {
		t.Errorf("explicit decomposition not honored: %v", got)
	}
}
