package core

import (
	"time"

	"repro/internal/grid"
	"repro/internal/sched"
	"repro/internal/simd"
	"repro/internal/stencil"
)

// pdSetup holds everything the point-decomposition family shares: the
// (safety-adjusted) decomposition, the point-to-cell assignment, and the
// modeled per-cell work weights used for coloring, scheduling and
// replication planning.
type pdSetup struct {
	d     grid.Decomp
	lat   stencil.Lattice
	cells [][]int32 // point indices per cell
	w     []float64 // modeled work per cell (voxel updates)
	binT  time.Duration
}

// newPDSetup bins each point into the single subdomain containing its
// voxel (Algorithm 6) after shrinking the decomposition so subdomains span
// at least twice the bandwidth plus one voxel along every axis.
func newPDSetup(pts []grid.Point, spec grid.Spec, opt Options, c *ctx) pdSetup {
	dc := opt.autoDecomp(spec)
	d := grid.NewDecomp(spec, dc[0], dc[1], dc[2]).AdjustForPD()

	t0 := time.Now()
	cells := make([][]int32, d.Cells())
	for i := range pts {
		X, Y, T := spec.VoxelOf(pts[i])
		a, b, cc := d.CellOf(X, Y, T)
		id := d.ID(a, b, cc)
		cells[id] = append(cells[id], int32(i))
	}
	// Modeled processing time of a cell: its points times the cylinder
	// volume (the number of voxel updates PB-SYM performs per point).
	cyl := float64(2*c.boxHs+1) * float64(2*c.boxHs+1) * float64(2*c.boxHt+1)
	w := make([]float64, d.Cells())
	for id := range cells {
		w[id] = float64(len(cells[id])) * cyl
	}
	return pdSetup{
		d:     d,
		lat:   stencil.Lattice{A: d.A, B: d.B, C: d.C},
		cells: cells,
		w:     w,
		binT:  time.Since(t0),
	}
}

// dagStats fills the schedule-structure stats the paper plots in Fig. 12.
func (s *pdSetup) dagStats(st *Stats, col stencil.Coloring, dag stencil.DAG, eff []float64, p int) {
	st.Decomp = [3]int{s.d.A, s.d.B, s.d.C}
	st.Cells = s.d.Cells()
	st.Colors = col.NumColors
	st.TotalWork = stencil.TotalWork(s.w)
	cp, _ := stencil.CriticalPath(dag, eff)
	st.CriticalPath = cp
	if st.TotalWork > 0 {
		st.CriticalPathRel = cp / st.TotalWork
	}
	st.GrahamBound = stencil.GrahamBound(st.TotalWork, cp, p)
}

// AnalyzePD computes the schedule structure (cells, colors, total work,
// critical path, Graham bound) of the point-decomposition family without
// executing the density computation. loadAware selects between the
// checkerboard coloring of PB-SYM-PD and the load-aware greedy coloring of
// PB-SYM-PD-SCHED; this is exactly the comparison of Figure 12.
func AnalyzePD(pts []grid.Point, spec grid.Spec, opt Options, loadAware bool) (Stats, error) {
	opt = opt.withDefaults()
	c := newCtx(pts, spec, opt)
	s := newPDSetup(pts, spec, opt, &c)
	var col stencil.Coloring
	if loadAware {
		col = stencil.Greedy(s.lat, stencil.ByLoadDesc(s.w))
	} else {
		col = stencil.Checkerboard(s.lat)
	}
	dag := stencil.Orient(s.lat, col)
	var st Stats
	s.dagStats(&st, col, dag, s.w, opt.Threads)
	st.N = len(pts)
	st.Threads = opt.Threads
	return st, nil
}

// runPD is PB-SYM-PD (Algorithm 6): subdomains are organized in 8 parity
// sets ((a mod 2, b mod 2, c mod 2)); the sets are processed one after the
// other, each in parallel over its subdomains. Points write directly to the
// shared grid; the minimum subdomain size guarantees no two concurrently
// processed points have overlapping cylinders. A cell applies its points
// in blocks (applySymPoints), in the order it binned them.
//
// It runs as a plan on the task-graph executor (runGraph): one task per
// cell, and the barrier between two parity sets is a join task that waits
// on every cell of one set and that every cell of the next set waits on.
// The sets' oriented DAG is only reported (Figure 12 compares these
// barriers against PD-SCHED's DAG).
func runPD(pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	return runGraph(pts, spec, opt, func(r *taskRun) error {
		s := newPDSetup(r.pts, spec, opt, &r.c)
		r.res.Phases.Bin += s.binT

		// Plan phase: the parity coloring and its implied dependency DAG.
		t0 := time.Now()
		col := stencil.Checkerboard(s.lat)
		dag := stencil.Orient(s.lat, col)
		s.dagStats(&r.res.Stats, col, dag, s.w, opt.Threads)
		r.res.Phases.Plan = time.Since(t0)

		v, err := r.newGrid()
		if err != nil {
			return err
		}
		// Color c's barrier is join[c]: it waits on every cell of color c
		// and on join[c-1], and every cell of color c+1 waits on it.
		join := make([]int, col.NumColors)
		for c := range join {
			join[c] = r.graph.Add(0, nil)
			if c > 0 {
				r.graph.AddDep(join[c-1], join[c])
			}
		}
		bounds := spec.Bounds()
		for id, c := range col.Colors {
			t := r.cell(0, v, s.cells[id], bounds)
			if c > 0 {
				r.graph.AddDep(join[c-1], t)
			}
			r.graph.AddDep(t, join[c])
		}
		return nil
	})
}

// runPDSched is PB-SYM-PD-SCHED (Section 5.2): a load-aware greedy coloring
// (vertices in non-increasing point count) is oriented into a dependency
// DAG which is executed by the task-graph scheduler, heaviest ready task
// first. This removes the barrier between parity sets and starts the most
// loaded subdomains as early as possible.
func runPDSched(pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	return runPDGraph(pts, spec, opt, true, false)
}

// runPDRep is PB-SYM-PD-REP: like the scheduled variant, but subdomains on
// the critical path are replicated (split into k replica tasks with private
// buffers plus a reduction task) until the critical path drops below
// T1/(2P).
func runPDRep(pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	return runPDGraph(pts, spec, opt, false, true)
}

// runPDSchedRep is PB-SYM-PD-SCHED-REP: load-aware coloring combined with
// critical-path replication (the "best of" configuration of Figure 15).
func runPDSchedRep(pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	return runPDGraph(pts, spec, opt, true, true)
}

// runPDGraph runs the task-graph variants as a plan on the executor
// (runGraph): one task per cell, or k replica tasks on their shares of a
// replicated cell's points, each writing a private buffer, plus the cell's
// reduction task; the oriented coloring orders the cells. A task applies
// its points in blocks (applySymPoints).
func runPDGraph(pts []grid.Point, spec grid.Spec, opt Options, loadAware, replicate bool) (*Result, error) {
	return runGraph(pts, spec, opt, func(r *taskRun) error {
		s := newPDSetup(r.pts, spec, opt, &r.c)
		r.res.Phases.Bin += s.binT
		p := opt.Threads
		bounds := spec.Bounds()

		// Plan phase: color, orient, optionally plan replication.
		t0 := time.Now()
		var order []int
		if loadAware {
			order = stencil.ByLoadDesc(s.w)
		} else {
			order = stencil.NaturalOrder(s.lat.N())
		}
		col := stencil.Greedy(s.lat, order)
		dag := stencil.Orient(s.lat, col)

		// A replicated cell's replicas write private buffers over the cell's
		// box expanded by the bandwidth.
		factor := make([]int, s.lat.N())
		expBox := make([]grid.Box, s.lat.N())
		for v := range expBox {
			factor[v] = 1
			expBox[v] = s.d.BoxID(v).Expand(r.c.boxHs, r.c.boxHt).Clip(bounds)
		}
		if replicate {
			factor = sched.PlanReplication(dag, s.w, p, func(v, k int) float64 {
				// A k-way split adds one buffer initialization to the chain
				// through v and k buffer merges to the reduction task.
				return float64((k + 1) * expBox[v].Count())
			}).Factor
		}
		eff := make([]float64, s.lat.N())
		for v := range eff {
			eff[v] = s.w[v] / float64(factor[v])
			if factor[v] > 1 {
				eff[v] += float64((factor[v] + 1) * expBox[v].Count())
			}
		}
		st := &r.res.Stats
		s.dagStats(st, col, dag, eff, p)
		for _, f := range factor {
			if f > 1 {
				st.ReplicatedCells++
			}
			st.MaxReplication = max(st.MaxReplication, f)
		}
		r.res.Phases.Plan = time.Since(t0)

		// Init phase: the shared output grid plus any replication buffers.
		gv, err := r.newGrid()
		if err != nil {
			return err
		}
		t0 = time.Now()
		bufs := make([][][]float64, s.lat.N()) // cell -> replica -> buffer
		for v := range factor {
			if factor[v] <= 1 {
				continue
			}
			n := expBox[v].Count()
			bufs[v] = make([][]float64, factor[v])
			for i := range bufs[v] {
				if err := opt.Budget.Alloc(int64(n) * 8); err != nil {
					opt.Budget.Free(st.BufferBytes) // everything charged so far
					return err
				}
				bufs[v][i] = make([]float64, n) // zeroed by the allocator (see grid.NewGrid)
				st.BufferBytes += int64(n) * 8
			}
		}
		r.res.Phases.Init += time.Since(t0)

		// The task graph: cells (or their replicas and reduction) ordered
		// by the DAG.
		entry := make([][]int, s.lat.N())
		exit := make([]int, s.lat.N())
		for v := 0; v < s.lat.N(); v++ {
			v := v
			idxs := s.cells[v]
			if factor[v] <= 1 {
				exit[v] = r.cell(s.w[v], gv, idxs, bounds)
				entry[v] = []int{exit[v]}
				continue
			}
			k, box := factor[v], expBox[v]
			for i := 0; i < k; i++ {
				share := idxs[i*len(idxs)/k : (i+1)*len(idxs)/k]
				entry[v] = append(entry[v], r.cell(s.w[v], boxView(bufs[v][i], box), share, bounds))
			}
			exit[v] = r.graph.Add(s.w[v], func(w int) {
				nred := reduceBuffers(gv, bufs[v], box)
				opt.Budget.Free(int64(k*box.Count()) * 8)
				bufs[v] = nil
				// Fold the reduction's update count into the worker's
				// scratch, which no other task is using meanwhile.
				r.worker(w).slots[0].updates += nred
			})
			for _, id := range entry[v] {
				r.graph.AddDep(id, exit[v])
			}
		}
		for u := 0; u < dag.N; u++ {
			for _, v := range dag.Succs[u] {
				for _, e := range entry[v] {
					r.graph.AddDep(exit[u], e)
				}
			}
		}
		return nil
	})
}

// reduceBuffers adds every replica buffer of a cell into the shared grid
// over the cell's expanded box and returns the number of voxel updates.
func reduceBuffers(gv view, bufs [][]float64, box grid.Box) int64 {
	_, _, nt := box.Dims()
	var updates int64
	for r := range bufs {
		bv := boxView(bufs[r], box)
		for X := box.X0; X <= box.X1; X++ {
			for Y := box.Y0; Y <= box.Y1; Y++ {
				simd.Add(gv.row(X, Y, box.T0, nt), bv.row(X, Y, box.T0, nt))
			}
		}
		updates += int64(box.Count())
	}
	return updates
}
