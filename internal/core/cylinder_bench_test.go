package core

import (
	"testing"

	"repro/internal/data"
	"repro/internal/grid"
)

// benchSetup builds a mid-size instance whose cylinders are large enough
// (17x17x13 boxes) for the inner-loop differences to dominate.
func benchSetup(b *testing.B) ([]grid.Point, grid.Spec) {
	b.Helper()
	spec, err := grid.NewSpec(grid.Domain{GX: 96, GY: 96, GT: 64}, 1, 1, 8, 6)
	if err != nil {
		b.Fatal(err)
	}
	pts := data.Epidemic{Clusters: 6}.Generate(2000, spec.Domain, 42)
	return pts, spec
}

// BenchmarkApplySym measures one full PB-SYM pass over the Morton-sorted
// point set: the span engine point by point, the span engine in blocks of
// symBlock points (applySymPoints, what the PB-SYM strategies run), and
// the dense oracle.
func BenchmarkApplySym(b *testing.B) {
	pts, spec := benchSetup(b)
	pts = grid.SortByMorton(pts, spec)
	for _, e := range []struct {
		name  string
		apply applyFn
	}{{"span", applySym}, {"blocked", nil}, {"dense", applySymDense}} {
		b.Run(e.name, func(b *testing.B) {
			c := newCtx(pts, spec, Options{}.withDefaults())
			sc := newScratch(&c)
			bs := newSymScratch(&c, symBlock)
			g, err := grid.NewGrid(spec, nil)
			if err != nil {
				b.Fatal(err)
			}
			v := gridView(g)
			bounds := spec.Bounds()
			b.SetBytes(int64(len(pts)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if e.apply == nil {
					applySymPoints(v, &c, pts, nil, bounds, bs)
					continue
				}
				for _, p := range pts {
					e.apply(v, &c, p, bounds, sc)
				}
			}
		})
	}
}

// BenchmarkFillDisk isolates the invariant computation: the packed span
// fill against the dense oracle's interface-dispatch scan.
func BenchmarkFillDisk(b *testing.B) {
	pts, spec := benchSetup(b)
	p := pts[0]
	for _, e := range []struct {
		name string
		fill func(*ctx, grid.Point, grid.Box, *scratch)
	}{{"span", fillDisk}, {"dense", fillDiskDense}} {
		b.Run(e.name, func(b *testing.B) {
			c := newCtx(pts, spec, Options{}.withDefaults())
			sc := newScratch(&c)
			box := c.spec.InfluenceBox(p)
			nx, ny, nt := box.Dims()
			sc.ensure(nx, ny, nt)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.fill(&c, p, box, sc)
			}
		})
	}
}

// BenchmarkEstimatePBSYM measures the full estimator (init + sort +
// compute) with and without the Morton locality pre-pass, against the
// dense oracle unsorted.
func BenchmarkEstimatePBSYM(b *testing.B) {
	pts, spec := benchSetup(b)
	for _, cfg := range []struct {
		name     string
		estimate func(string, []grid.Point, grid.Spec, Options) (*Result, error)
		opt      Options
	}{
		{"sorted", Estimate, Options{Threads: 1}},
		{"unsorted", Estimate, Options{Threads: 1, NoSort: true}},
		{"dense-unsorted", denseEstimate, Options{Threads: 1, NoSort: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := cfg.estimate(AlgPBSYM, pts, spec, cfg.opt)
				if err != nil {
					b.Fatal(err)
				}
				res.Grid.Release()
			}
		})
	}
}
