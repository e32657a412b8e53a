package core

import (
	"time"

	"repro/internal/grid"
	"repro/internal/par"
)

// runDD is PB-SYM-DD (Algorithm 5), domain decomposition: the grid is split
// into A x B x C subdomains; each point is assigned to every subdomain its
// bandwidth cylinder intersects; subdomains are then processed fully
// independently (in parallel) with PB-SYM restricted to the subdomain box.
//
// Cylinders cut by a subdomain boundary are the source of DD's work
// overhead: the cut parts recompute the spatial and/or temporal invariants
// (Figure 4). Stats.PointAssignments exposes the replication factor and
// Stats.SKEvals/TKEvals the recomputation, which Figure 9 measures as
// single-thread overhead versus PB-SYM.
//
// The grid is bitwise identical to sequential PB-SYM's for every P and
// every decomposition: each voxel has one owner, the cell containing it,
// and receives its points in sorted order, because cells collect point
// indices by walking the Morton-sorted points and a cut cylinder's clipped
// disk and bar hold the same per-voxel values as the whole one. A cell
// applies its points in blocks (applySymPoints), which keeps that order.
func runDD(pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	res := &Result{}
	dc := opt.autoDecomp(spec)
	d := grid.NewDecomp(spec, dc[0], dc[1], dc[2])
	res.Stats.Decomp = [3]int{d.A, d.B, d.C}
	res.Stats.Cells = d.Cells()

	// Bin phase: Morton pre-pass (so every cell's point list is in
	// cache-adjacent order), then assign each point to every intersected
	// subdomain.
	t0 := time.Now()
	pts, _ = sortedByMorton(pts, spec, opt)
	c := newCtx(pts, spec, opt)
	cells := make([][]int32, d.Cells())
	var assignments int64
	for i := range pts {
		ib := c.geom(pts[i]).box
		a0, a1, b0, b1, c0, c1 := d.CellRange(ib)
		for a := a0; a <= a1; a++ {
			for b := b0; b <= b1; b++ {
				for cc := c0; cc <= c1; cc++ {
					id := d.ID(a, b, cc)
					cells[id] = append(cells[id], int32(i))
					assignments++
				}
			}
		}
	}
	res.Stats.PointAssignments = assignments
	res.Phases.Bin = time.Since(t0)

	// Init phase: one shared grid; subdomains never overlap, so no races.
	t0 = time.Now()
	g, err := grid.NewGridP(spec, opt.Budget, opt.Threads)
	if err != nil {
		return nil, err
	}
	res.Grid = g
	res.Phases.Init = time.Since(t0)

	// Compute phase: dynamic schedule over subdomains (their costs are
	// irregular when points cluster).
	t0 = time.Now()
	p := opt.Threads
	v := gridView(g)
	scratches := make([]*symScratch, p)
	for w := range scratches {
		scratches[w] = newSymScratch(&c, symBlock)
	}
	par.ForDynamicW(p, d.Cells(), opt.Chunk, func(w, id int) {
		if idxs := cells[id]; len(idxs) > 0 {
			applySymPoints(v, &c, pts, idxs, d.BoxID(id), scratches[w])
		}
	})
	res.Phases.Compute = time.Since(t0)
	for _, b := range scratches {
		b.mergeInto(&res.Stats)
	}
	return res, nil
}
