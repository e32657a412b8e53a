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
// Memory is Θ(P·Gx·Gy·Gt) and the parallel work is
// Θ(P·Gx·Gy·Gt + n·Hs²·Ht): pleasingly parallel, but not work-efficient.
// With a memory budget configured, large grids fail with
// grid.ErrMemoryBudget exactly like the paper's 128 GB machine (Figure 8).
func runDR(pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	res := &Result{}
	p := opt.Threads

	// Init phase: allocate P private grids (replica 0 doubles as output).
	t0 := time.Now()
	replicas := make([]*grid.Grid, p)
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
	res.Phases.Init = time.Since(t0)

	// Bin phase: the Morton pre-pass hands every worker a cache-coherent,
	// spatially contiguous block of points.
	var sortT time.Duration
	pts, sortT = sortedByMorton(pts, spec, opt)
	res.Phases.Bin = sortT

	c := newCtx(pts, spec, opt)
	bounds := spec.Bounds()
	scratches := make([]*symScratch, p)

	// Compute phase: points are distributed statically among the workers
	// (Algorithm 4); each worker runs PB-SYM into its own replica.
	t0 = time.Now()
	par.Blocks(p, len(pts), func(w, lo, hi int) {
		b := newSymScratch(&c, symBlock)
		scratches[w] = b
		applySymPoints(gridView(replicas[w]), &c, pts[lo:hi], nil, bounds, b)
	})
	res.Phases.Compute = time.Since(t0)

	// Reduce phase: sum the P replicas voxel-by-voxel, each worker owning
	// a contiguous slab of the output.
	t0 = time.Now()
	out := replicas[0]
	if p > 1 {
		par.Blocks(p, len(out.Data), func(_, lo, hi int) {
			dst := out.Data[lo:hi]
			for w := 1; w < p; w++ {
				simd.Add(dst, replicas[w].Data[lo:hi])
			}
		})
	}
	res.Phases.Reduce = time.Since(t0)

	for w := 1; w < p; w++ {
		replicas[w].Release()
	}
	res.Grid = out
	for _, b := range scratches {
		if b != nil {
			b.mergeInto(&res.Stats)
		}
	}
	if p > 1 {
		res.Stats.Updates += int64(p-1) * int64(len(out.Data))
	}
	res.Stats.BufferBytes = int64(p-1) * spec.Bytes()
	return res, nil
}
