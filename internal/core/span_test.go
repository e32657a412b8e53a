package core

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/grid"
)

// spanProbeCase is one fixed script of TestSpanProbes: strategy alg at one
// worker over n clustered points (seed 61) on a gx×gy×gt unit-resolution
// spec.
type spanProbeCase struct {
	name       string
	alg        string
	gx, gy, gt int
	hs, ht     float64
	n          int
	probes     int64 // Stats.SpanProbes
}

// spanProbeCases cover the engine's span regimes with PB-SYM: the digest
// script's spec (Hs 7), boxes of the batch-hb (Hs 25) and stream (Hs 13)
// bandwidths, the three-row boxes of batch-lb's Hs 1, and a bandwidth
// under half a voxel, where most columns have no span. PB-SYM-DD on a 2³
// decomposition adds boxes cut at cell faces, many of which leave out the
// point's own row or column.
var spanProbeCases = []spanProbeCase{
	{"digest", AlgPBSYM, 26, 24, 18, 7, 5, 140, 5558},
	{"dd", AlgPBSYMDD, 26, 24, 18, 7, 5, 140, 10036},
	{"hs25", AlgPBSYM, 90, 80, 16, 25, 3, 120, 17977},
	{"hs13", AlgPBSYM, 70, 60, 16, 13, 4, 200, 16839},
	{"hs1", AlgPBSYM, 60, 60, 30, 1, 2, 400, 1917},
	{"hs0.4", AlgPBSYM, 40, 40, 20, 0.4, 2, 400, 736},
}

// updaterSpanProbes pins the span probes of the updater's strips on the
// script of TestSpanProbes' "hs13" case, added to a window of that spec
// in one batch cut into three strips.
const updaterSpanProbes = 20613

// TestSpanProbes pins Stats.SpanProbes, the disk-span predicate
// evaluations, for PB-SYM and PB-SYM-DD on fixed scripts, and the same count
// summed over an updater's strip scratches. A change to diskSpans may
// lower these constants, never raise them. Whether a voxel center passes
// the predicate can depend on a fused multiply-add, so like the digests it
// runs on amd64 only.
func TestSpanProbes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned counts assume unfused multiply-adds, which only amd64 guarantees")
	}
	for _, tc := range spanProbeCases {
		spec := testSpec(t, tc.gx, tc.gy, tc.gt, tc.hs, tc.ht)
		pts := testPoints(tc.n, spec.Domain, 61)
		res, err := Estimate(tc.alg, pts, spec, Options{Threads: 1, Decomp: [3]int{2, 2, 2}})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Stats.SpanProbes; got != tc.probes {
			t.Errorf("%s: SpanProbes = %d, want %d (%.2f per point)", tc.name, got, tc.probes, float64(got)/float64(tc.n))
		}
		if tc.name != "hs13" {
			continue
		}
		u, err := NewUpdater(spec, UpdaterConfig{Options: Options{Threads: 1}, strips: 3})
		if err != nil {
			t.Fatal(err)
		}
		u.Add(pts...)
		var got int64
		for _, s := range u.scs {
			got += s.spanProbes
		}
		u.Release()
		if got != updaterSpanProbes {
			t.Errorf("updater strips: span probes = %d, want %d", got, updaterSpanProbes)
		}
	}
}

// TestDiskSpansClippedBoxes checks diskSpans against the span predicate
// tested row by row, on the boxes the engine clips a point's influence box
// to, not only whole boxes (TestSpanFillMatchesDenseFill): a 3×3 DD
// decomposition's cells and the halves and quadrants that leave out the
// point's own row or column, X strips one to seven columns wide (the
// updater's cut), bandwidths under half a voxel, where a column's span
// goes empty, then not, then empty again, and points on a row boundary,
// where two rows tie for the least dy^2. Every column's span must be
// exactly the rows that pass, and the total their sum.
func TestDiskSpansClippedBoxes(t *testing.T) {
	blips, ties := 0, 0 // columns with a span between two without; boxes with two least rows
	offset, err := grid.NewSpec(grid.Domain{X0: 3.1, Y0: -2.3, GX: 21, GY: 17.5, GT: 8}, 0.7, 1, 3.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	specs := []grid.Spec{
		testSpec(t, 30, 28, 8, 5, 2), // centers on the circle: 3-4-5 offsets
		testSpec(t, 30, 28, 8, 7.5, 2),
		testSpec(t, 30, 28, 8, 0.45, 2),
		testSpec(t, 30, 28, 8, 0.3, 2),
		offset,
	}
	for si, spec := range specs {
		c := newCtx(nil, spec, Options{}.withDefaults())
		sc := newScratch(&c)
		pts := testPoints(25, spec.Domain, 83)
		for X := 3; X < spec.Gx-3; X += 5 {
			Y := X * spec.Gy / spec.Gx
			ctr := grid.Point{X: spec.CenterX(X), Y: spec.CenterY(Y), T: spec.CenterT(3)}
			pts = append(pts,
				ctr, // a voxel center
				grid.Point{X: ctr.X + 0.1, Y: ctr.Y - 0.05, T: ctr.T},        // just off one
				grid.Point{X: ctr.X, Y: ctr.Y + spec.SRes/2, T: ctr.T},       // on a row boundary
				grid.Point{X: ctr.X + 0.2, Y: ctr.Y - spec.SRes/2, T: ctr.T}, // on the boundary below
			)
		}
		d := grid.NewDecomp(spec, 3, 3, 1)
		for pi, p := range pts {
			full := c.spec.InfluenceBox(p)
			pX, pY, _ := spec.VoxelOf(p)
			boxes := []grid.Box{
				full,
				{X0: full.X0, X1: full.X1, Y0: full.Y0, Y1: pY - 1, T0: full.T0, T1: full.T1},
				{X0: full.X0, X1: full.X1, Y0: pY + 1, Y1: full.Y1, T0: full.T0, T1: full.T1},
				{X0: full.X0, X1: pX - 1, Y0: full.Y0, Y1: full.Y1, T0: full.T0, T1: full.T1},
				{X0: pX + 1, X1: full.X1, Y0: full.Y0, Y1: full.Y1, T0: full.T0, T1: full.T1},
				{X0: full.X0, X1: pX - 1, Y0: pY + 1, Y1: full.Y1, T0: full.T0, T1: full.T1},
				{X0: pX + 1, X1: full.X1, Y0: full.Y0, Y1: pY - 1, T0: full.T0, T1: full.T1},
			}
			for id := 0; id < d.Cells(); id++ {
				boxes = append(boxes, full.Clip(d.BoxID(id)))
			}
			for _, w := range []int{1, 3, 7} {
				for x0 := full.X0; x0 <= full.X1; x0 += w {
					boxes = append(boxes, full.Clip(grid.Box{X0: x0, X1: x0 + w - 1, Y0: full.Y0, Y1: full.Y1, T0: full.T0, T1: full.T1}))
				}
			}
			for bi, box := range boxes {
				if box.Empty() {
					continue
				}
				nx, ny, nt := box.Dims()
				sc.ensure(nx, ny, nt)
				fillDy2(&c, p, box, sc)
				total := diskSpans(&c, p, box, sc)
				least, nLeast := slices.Min(sc.dy2[:ny]), 0
				for _, v := range sc.dy2[:ny] {
					if v == least {
						nLeast++
					}
				}
				if nLeast > 1 {
					ties++
				}
				sum := 0
				for ix := 0; ix < nx; ix++ {
					dx := spec.CenterX(box.X0+ix) - p.X
					dxx := float64(dx * dx) // rounded, as the engine's dxx is
					lo, n := 0, 0
					for iy := 0; iy < ny; iy++ {
						if dxx+sc.dy2[iy] >= c.hs2 {
							continue
						}
						if n == 0 {
							lo = iy
						} else if iy != lo+n {
							t.Fatalf("spec %d point %d box %d column %d: in-disk rows are not contiguous", si, pi, bi, ix)
						}
						n++
					}
					if gotLo, gotN := int(sc.spanLo[ix]), int(sc.spanN[ix]); gotLo != lo || gotN != n {
						t.Fatalf("spec %d point %d (%v) box %d %+v column %d: span [%d,+%d), want [%d,+%d)",
							si, pi, p, bi, box, ix, gotLo, gotN, lo, n)
					}
					sum += n
					if ix >= 2 && sc.spanN[ix-2] == 0 && sc.spanN[ix-1] > 0 && n == 0 {
						blips++
					}
				}
				if total != sum {
					t.Fatalf("spec %d point %d box %d: total %d, want %d", si, pi, bi, total, sum)
				}
			}
		}
	}
	if blips == 0 || ties == 0 {
		t.Errorf("the script reached %d one-column spans and %d tied seeds; it must reach both", blips, ties)
	}
}
