package core

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/kernel"
)

// applySym is Algorithm 3 (PB-SYM): both invariants are computed once and
// every voxel update is a single multiply-add of disk and bar entries. The
// span engine iterates only the packed in-disk spans, walks rows with
// incremental base arithmetic, and hands each span to mulAddRows.
func applySym(v view, c *ctx, p grid.Point, clip grid.Box, sc *scratch) {
	box := c.spec.InfluenceBox(p).Clip(clip).Clip(v.box)
	if box.Empty() {
		return
	}
	applySymBox(&v, c, p, box, sc)
}

// symBlockCase is one input of the block-applier tests: points, options,
// and the clip boxes the points are applied under, each with the point
// indices it receives (nil: every point, in order).
type symBlockCase struct {
	name  string
	spec  grid.Spec
	pts   []grid.Point
	opt   Options
	clips []grid.Box
	idxs  [][]int32
}

func symBlockCases(t *testing.T) []symBlockCase {
	// Hs 7, Ht 5: a whole box is 15×15×11 voxels, above symSmallBox, and
	// most boxes of the clustered points are whole.
	spec := testSpec(t, 48, 44, 24, 7, 5)
	clustered := grid.SortByMorton(testPoints(160, spec.Domain, 71), spec)
	one := []grid.Box{spec.Bounds()}

	// Points hopping between three X bands 30 voxels apart: no box
	// overlaps the block before it, so every block holds one point.
	wide := testSpec(t, 100, 44, 24, 7, 5)
	var hops []grid.Point
	for i, p := range testPoints(60, wide.Domain, 73) {
		p.X = 10 + 30*float64(i%3) + math.Mod(p.X, 3)
		p.Y, p.T = 10+math.Mod(p.Y, 24), 6+math.Mod(p.T, 12)
		hops = append(hops, p)
	}

	// A 2×2×2 decomposition: each cell applies the points its cylinder
	// meets, clipped to the cell, as runDD does.
	d := grid.NewDecomp(spec, 2, 2, 2)
	c := newCtx(clustered, spec, Options{}.withDefaults())
	cells := make([][]int32, d.Cells())
	for i := range clustered {
		a0, a1, b0, b1, c0, c1 := d.CellRange(c.spec.InfluenceBox(clustered[i]))
		for a := a0; a <= a1; a++ {
			for b := b0; b <= b1; b++ {
				for cc := c0; cc <= c1; cc++ {
					cells[d.ID(a, b, cc)] = append(cells[d.ID(a, b, cc)], int32(i))
				}
			}
		}
	}
	var cellBoxes []grid.Box
	for id := 0; id < d.Cells(); id++ {
		cellBoxes = append(cellBoxes, d.BoxID(id))
	}

	// Points on and next to the faces, whose clipped boxes sit on both
	// sides of symSmallBox, mixed with interior ones: the bypass must
	// flush the block to keep the order.
	var border []grid.Point
	bypassed, blocked := 0, 0
	for i, p := range clustered[:48] {
		switch i % 4 {
		case 0:
			p.X = 0
		case 1:
			p.Y, p.T = 44, 24 // on the open upper bounds
		case 2:
			p.X, p.T = 47.9999, 0.5
		}
		border = append(border, p)
		if c.spec.InfluenceBox(p).Count() < symSmallBox {
			bypassed++
		} else {
			blocked++
		}
	}
	if bypassed == 0 || blocked == 0 {
		t.Fatalf("border: %d bypassed and %d blocked points, want both", bypassed, blocked)
	}

	return []symBlockCase{
		{name: "clustered", spec: spec, pts: clustered, clips: one},
		{name: "disjoint-x", spec: wide, pts: hops, clips: []grid.Box{wide.Bounds()}},
		{name: "dd-cells", spec: spec, pts: clustered, clips: cellBoxes, idxs: cells},
		{name: "cone-triangle", spec: spec, pts: clustered, clips: one,
			opt: Options{Spatial: kernel.Cone2D{}, Temporal: kernel.Triangle1D{}}},
		{name: "border", spec: spec, pts: border, clips: one},
	}
}

// runSymBlocks applies a case through applySymPoints with a block scratch
// of bs slots and returns the grid, the stats and the number of blocks.
func runSymBlocks(t *testing.T, tc symBlockCase, bs int) (*grid.Grid, Stats, int64) {
	t.Helper()
	c := newCtx(tc.pts, tc.spec, tc.opt.withDefaults())
	g, err := grid.NewGrid(tc.spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := newSymScratch(&c, bs)
	for k, clip := range tc.clips {
		var idxs []int32
		if tc.idxs != nil {
			idxs = tc.idxs[k]
		}
		applySymPoints(gridView(g), &c, tc.pts, idxs, clip, b)
	}
	var st Stats
	b.mergeInto(&st)
	return g, st, b.blocks
}

// TestApplySymPointsMatchesPerPoint: the block applier must leave the grid
// bitwise equal to, and count the same work as, applying every point on
// its own with applySym in the same order, at every block size.
func TestApplySymPointsMatchesPerPoint(t *testing.T) {
	for _, tc := range symBlockCases(t) {
		c := newCtx(tc.pts, tc.spec, tc.opt.withDefaults())
		want, err := grid.NewGrid(tc.spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		sc := newScratch(&c)
		for k, clip := range tc.clips {
			if tc.idxs == nil {
				for _, p := range tc.pts {
					applySym(gridView(want), &c, p, clip, sc)
				}
				continue
			}
			for _, i := range tc.idxs[k] {
				applySym(gridView(want), &c, tc.pts[i], clip, sc)
			}
		}
		var wantSt Stats
		sc.mergeInto(&wantSt)
		if wantSt.Updates == 0 {
			t.Fatalf("%s: no updates", tc.name)
		}
		for _, bs := range []int{1, 2, 3, 16} {
			got, st, _ := runSymBlocks(t, tc, bs)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s/bs%d: voxel %d = %v, want %v", tc.name, bs, i, got.Data[i], want.Data[i])
				}
			}
			if st != wantSt {
				t.Errorf("%s/bs%d: stats %+v, want %+v", tc.name, bs, st, wantSt)
			}
		}
	}
}

// TestApplySymPointsBlocks pins how the Morton-sorted clustered script and
// the X-hopping script split into blocks at block size 16: the first fills
// blocks (its clipped boxes near the faces bypass them), the second breaks
// every block after one point.
func TestApplySymPointsBlocks(t *testing.T) {
	want := map[string]int64{"clustered": 17, "disjoint-x": 60}
	for _, tc := range symBlockCases(t) {
		n, ok := want[tc.name]
		if !ok {
			continue
		}
		if _, _, blocks := runSymBlocks(t, tc, 16); blocks != n {
			t.Errorf("%s: %d blocks, want %d", tc.name, blocks, n)
		}
	}
}

// TestSymScratchByteBudget: a block scratch never holds more than
// symBlockBytes of slots, down to one slot, whatever the block size asked.
// At Hs 130 voxels a slot's disk alone is 261² floats, so two slots exceed
// the budget.
func TestSymScratchByteBudget(t *testing.T) {
	spec := vectorSpec(t)
	pts := testPoints(10, spec.Domain, 79)
	c := newCtx(pts, spec, Options{}.withDefaults())
	if n := len(newSymScratch(&c, symBlock).slots); n != symBlock {
		t.Errorf("uniform bandwidth: %d slots, want %d", n, symBlock)
	}
	wide := newCtx(pts, testSpec(t, 26, 24, 18, 130, 5), Options{}.withDefaults())
	if n := len(newSymScratch(&wide, symBlock).slots); n != 1 {
		t.Errorf("Hs 130: %d slots, want 1", n)
	}
}
