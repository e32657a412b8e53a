package core

import (
	"time"

	"repro/internal/grid"
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
//
// It runs as a plan on the task-graph executor (runGraph): one independent
// task per cell, handed out in cell id order as workers free up (the
// dynamic schedule of the paper's parallel loop over cells).
func runDD(pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	return runGraph(pts, spec, opt, func(r *taskRun) error {
		dc := opt.autoDecomp(spec)
		d := grid.NewDecomp(spec, dc[0], dc[1], dc[2])
		r.res.Stats.Decomp = [3]int{d.A, d.B, d.C}
		r.res.Stats.Cells = d.Cells()

		// Bin phase: assign each point to every intersected subdomain;
		// walking the Morton-sorted points keeps every cell's point list in
		// cache-adjacent order.
		t0 := time.Now()
		cells := make([][]int32, d.Cells())
		var assignments int64
		for i := range r.pts {
			ib := r.c.spec.InfluenceBox(r.pts[i])
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
		r.res.Stats.PointAssignments = assignments
		r.res.Phases.Bin += time.Since(t0)

		// Init phase: one shared grid; subdomains never overlap, so no races.
		v, err := r.newGrid()
		if err != nil {
			return err
		}
		for id, idxs := range cells {
			r.cell(0, v, idxs, d.BoxID(id))
		}
		return nil
	})
}
