package core

import (
	"time"

	"repro/internal/grid"
	"repro/internal/par"
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
	d := grid.NewDecomp(spec, dc[0], dc[1], dc[2])
	if c.adaptiveOn {
		// Safety must account for the largest adaptive bandwidth.
		s := spec
		s.Hs = c.maxHsVoxels()
		s.Ht = c.maxHtVoxels()
		ad := grid.NewDecomp(s, dc[0], dc[1], dc[2]).AdjustForPD()
		d = grid.NewDecomp(spec, ad.A, ad.B, ad.C)
	} else {
		d = d.AdjustForPD()
	}

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
	cyl := float64(2*c.maxHsVoxels()+1) * float64(2*c.maxHsVoxels()+1) * float64(2*c.maxHtVoxels()+1)
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
// other, each with a parallel loop over its subdomains. Points write
// directly to the shared grid; the minimum subdomain size guarantees no two
// concurrently processed points have overlapping cylinders. A cell applies
// its points in blocks (applySymPoints), in the order it binned them.
func runPD(pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	res := &Result{}
	pts, sortT := sortedByMorton(pts, spec, opt)
	c := newCtx(pts, spec, opt)
	s := newPDSetup(pts, spec, opt, &c)
	res.Phases.Bin = sortT + s.binT

	// Plan phase: the parity coloring and its implied dependency DAG
	// (used only for reporting; execution uses barriers between colors).
	t0 := time.Now()
	col := stencil.Checkerboard(s.lat)
	dag := stencil.Orient(s.lat, col)
	s.dagStats(&res.Stats, col, dag, s.w, opt.Threads)
	byColor := make([][]int, col.NumColors)
	for id, cl := range col.Colors {
		if len(s.cells[id]) > 0 {
			byColor[cl] = append(byColor[cl], id)
		}
	}
	res.Phases.Plan = time.Since(t0)

	t0 = time.Now()
	g, err := grid.NewGridP(spec, opt.Budget, opt.Threads)
	if err != nil {
		return nil, err
	}
	res.Grid = g
	res.Phases.Init = time.Since(t0)

	t0 = time.Now()
	p := opt.Threads
	v := gridView(g)
	bounds := spec.Bounds()
	scratches := make([]*symScratch, p)
	for w := range scratches {
		scratches[w] = newSymScratch(&c, symBlock)
	}
	for _, set := range byColor {
		par.ForDynamicOrderedW(p, set, opt.Chunk, func(w, id int) {
			applySymPoints(v, &c, pts, s.cells[id], bounds, scratches[w])
		})
	}
	res.Phases.Compute = time.Since(t0)
	for _, b := range scratches {
		b.mergeInto(&res.Stats)
	}
	return res, nil
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

// runPDGraph runs the task-graph variants. A cell task, or a replica task
// on its share of a cell's points, applies its points in blocks
// (applySymPoints) with a block scratch taken from the workers' pool.
func runPDGraph(pts []grid.Point, spec grid.Spec, opt Options, loadAware, replicate bool) (*Result, error) {
	res := &Result{}
	pts, sortT := sortedByMorton(pts, spec, opt)
	c := newCtx(pts, spec, opt)
	s := newPDSetup(pts, spec, opt, &c)
	res.Phases.Bin = sortT + s.binT
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

	factor := make([]int, s.lat.N())
	for i := range factor {
		factor[i] = 1
	}
	expCount := make([]int, s.lat.N())
	hsV, htV := c.maxHsVoxels(), c.maxHtVoxels()
	for v := range expCount {
		expCount[v] = s.d.BoxID(v).Expand(hsV, htV).Clip(bounds).Count()
	}
	var plan sched.Replication
	if replicate {
		plan = sched.PlanReplication(dag, s.w, p, func(v, k int) float64 {
			// A k-way split adds one buffer initialization to the chain
			// through v and k buffer merges to the reduction task.
			return float64((k + 1) * expCount[v])
		})
		factor = plan.Factor
	}
	eff := make([]float64, s.lat.N())
	for v := range eff {
		eff[v] = s.w[v] / float64(factor[v])
		if factor[v] > 1 {
			eff[v] += float64((factor[v] + 1) * expCount[v])
		}
	}
	s.dagStats(&res.Stats, col, dag, eff, p)
	for _, f := range factor {
		if f > 1 {
			res.Stats.ReplicatedCells++
		}
		if f > res.Stats.MaxReplication {
			res.Stats.MaxReplication = f
		}
	}
	res.Phases.Plan = time.Since(t0)

	// Init phase: the shared output grid plus any replication buffers.
	t0 = time.Now()
	g, err := grid.NewGridP(spec, opt.Budget, opt.Threads)
	if err != nil {
		return nil, err
	}
	res.Grid = g
	bufs := make([][][]float64, s.lat.N()) // cell -> replica -> buffer
	expBox := make([]grid.Box, s.lat.N())
	var bufBytes int64
	for v := range factor {
		if factor[v] <= 1 {
			continue
		}
		expBox[v] = s.d.BoxID(v).Expand(hsV, htV).Clip(bounds)
		n := expBox[v].Count()
		bufs[v] = make([][]float64, factor[v])
		for r := 0; r < factor[v]; r++ {
			if err := opt.Budget.Alloc(int64(n) * 8); err != nil {
				// Release everything charged so far.
				for _, bb := range bufs {
					for _, buf := range bb {
						opt.Budget.Free(int64(len(buf)) * 8)
					}
				}
				g.Release()
				return nil, err
			}
			buf := make([]float64, n)
			for i := range buf {
				buf[i] = 0 // explicit first touch (see grid.NewGrid)
			}
			bufs[v][r] = buf
			bufBytes += int64(n) * 8
		}
	}
	res.Stats.BufferBytes = bufBytes
	res.Phases.Init += time.Since(t0)

	// Compute phase: build and run the task graph.
	t0 = time.Now()
	gv := gridView(g)
	pool := make(chan *symScratch, p)
	for i := 0; i < p; i++ {
		pool <- newSymScratch(&c, symBlock)
	}

	graph := &par.Graph{}
	entry := make([][]int, s.lat.N())
	exit := make([]int, s.lat.N())
	for v := 0; v < s.lat.N(); v++ {
		v := v
		idxs := s.cells[v]
		if factor[v] <= 1 {
			id := graph.Add(s.w[v], func() {
				if len(idxs) == 0 {
					return
				}
				b := <-pool
				applySymPoints(gv, &c, pts, idxs, bounds, b)
				pool <- b
			})
			entry[v] = []int{id}
			exit[v] = id
			continue
		}
		k := factor[v]
		box := expBox[v]
		ids := make([]int, k)
		for r := 0; r < k; r++ {
			r := r
			lo, hi := r*len(idxs)/k, (r+1)*len(idxs)/k
			slice := idxs[lo:hi]
			bv := boxView(bufs[v][r], box)
			ids[r] = graph.Add(s.w[v], func() {
				if len(slice) == 0 {
					return
				}
				b := <-pool
				applySymPoints(bv, &c, pts, slice, bounds, b)
				pool <- b
			})
		}
		red := graph.Add(s.w[v], func() {
			nred := reduceBuffers(gv, bufs[v], box)
			for _, buf := range bufs[v] {
				opt.Budget.Free(int64(len(buf)) * 8)
			}
			bufs[v] = nil
			// Fold the reduction's update count into a pooled scratch so
			// the counter needs no extra synchronization.
			b := <-pool
			b.slots[0].updates += nred
			pool <- b
		})
		for _, id := range ids {
			graph.AddDep(id, red)
		}
		entry[v] = ids
		exit[v] = red
	}
	for u := 0; u < dag.N; u++ {
		for _, v := range dag.Succs[u] {
			for _, e := range entry[v] {
				graph.AddDep(exit[u], e)
			}
		}
	}
	graph.Run(p)
	res.Phases.Compute = time.Since(t0)

	close(pool)
	for b := range pool {
		b.mergeInto(&res.Stats)
	}
	return res, nil
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
