package core

import (
	"time"

	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/simd"
)

// runDR is PB-SYM-DR (Algorithm 4), domain replication: every worker
// aggregates its share of the points into a private copy of the whole
// density grid, and the copies are summed in a parallel reduction.
//
// It runs as a plan on the task-graph executor (runGraph): P independent
// replica tasks, replica w applying the static share
// pts[w·n/P : (w+1)·n/P] of the Morton-sorted points (a cache-coherent,
// spatially contiguous block); the reduction runs after the task graph, in
// worker order, and is charged to Phases.Reduce.
//
// Memory is Θ(P·Gx·Gy·Gt) and the parallel work is
// Θ(P·Gx·Gy·Gt + n·Hs²·Ht): pleasingly parallel, but not work-efficient.
// With a memory budget configured, large grids fail with
// grid.ErrMemoryBudget exactly like the paper's 128 GB machine (Figure 8).
func runDR(pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	p := opt.Threads
	replicas := make([]*grid.Grid, p)
	// Init phase: allocate P private grids (replica 0 doubles as output).
	// It comes before the sort: on the batch-hb cube at P 2 (2-vCPU AVX2
	// host), replicas allocated after the sort's copy of the points were
	// slower in Init, Bin and Compute alike (compute ~10 %).
	t0 := time.Now()
	allocErrs := make([]error, p)
	par.For(p, p, func(w int) {
		replicas[w], allocErrs[w] = grid.NewGrid(spec, opt.Budget)
	})
	for _, err := range allocErrs {
		if err != nil {
			for _, g := range replicas {
				if g != nil {
					g.Release()
				}
			}
			return nil, err
		}
	}
	initT := time.Since(t0)
	res, err := runGraph(pts, spec, opt, func(r *taskRun) error {
		r.res.Phases.Init = initT
		n, bounds := len(r.pts), spec.Bounds()
		for w := range replicas {
			v, share := gridView(replicas[w]), r.pts[w*n/p:(w+1)*n/p]
			r.graph.Add(0, func(wk int) {
				applySymPoints(v, &r.c, share, nil, bounds, r.worker(wk))
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Reduce phase: sum the P replicas voxel-by-voxel, each worker owning
	// a contiguous slab of the output.
	t0 = time.Now()
	out := replicas[0]
	par.Blocks(p, len(out.Data), func(_, lo, hi int) {
		dst := out.Data[lo:hi]
		for w := 1; w < p; w++ {
			simd.Add(dst, replicas[w].Data[lo:hi])
		}
	})
	res.Phases.Reduce = time.Since(t0)

	for w := 1; w < p; w++ {
		replicas[w].Release()
	}
	res.Grid = out
	res.Stats.Updates += int64(p-1) * int64(len(out.Data))
	res.Stats.BufferBytes = int64(p-1) * spec.Bytes()
	return res, nil
}
