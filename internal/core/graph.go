package core

import (
	"time"

	"repro/internal/grid"
	"repro/internal/par"
)

// taskRun is one parallel PB-SYM run while a strategy plans it: the
// Morton-sorted points and their ctx, the task graph the plan fills, one
// block scratch per worker for its tasks, and the result the plan reports
// into.
type taskRun struct {
	pts     []grid.Point
	opt     Options
	c       ctx
	graph   par.Graph
	scratch []*symScratch
	res     *Result
}

// runGraph runs a parallel PB-SYM strategy as a task graph on one
// executor, the way the paper presents all of them (Sections 4-5): it
// sorts the points (charged to Phases.Bin), lets plan bin them, plan the
// schedule, allocate the grids and add the tasks (charging each to its own
// phase), runs the graph on opt.Threads workers (Phases.Compute), and merges
// the workers' counters into Stats. A task indexes the block scratch of the
// worker running it, so the scratch needs no synchronization and which
// worker runs a task changes no total. If plan fails, the shared grid it
// allocated is released.
func runGraph(pts []grid.Point, spec grid.Spec, opt Options, plan func(*taskRun) error) (*Result, error) {
	r := &taskRun{opt: opt, res: &Result{}, scratch: make([]*symScratch, opt.Threads)}
	r.pts, r.res.Phases.Bin = sortedByMorton(pts, spec, opt)
	r.c = newCtx(r.pts, spec, opt)
	if err := plan(r); err != nil {
		if r.res.Grid != nil {
			r.res.Grid.Release()
		}
		return nil, err
	}
	t0 := time.Now()
	r.graph.Run(opt.Threads)
	r.res.Phases.Compute = time.Since(t0)
	for _, b := range r.scratch {
		if b != nil {
			b.mergeInto(&r.res.Stats)
		}
	}
	return r.res, nil
}

// newGrid allocates the shared output grid into res.Grid, charged to
// Phases.Init, and returns its view.
func (r *taskRun) newGrid() (view, error) {
	t0 := time.Now()
	g, err := grid.NewGrid(r.c.spec, r.opt.Budget)
	if err != nil {
		return view{}, err
	}
	r.res.Grid = g
	r.res.Phases.Init += time.Since(t0)
	return gridView(g), nil
}

// cell adds a task that applies the points pts[idxs[k]], k in order, into v
// clipped to clip, in blocks (applySymPoints), and returns its id. A cell
// with no points is an empty join task, so it still orders its successors.
func (r *taskRun) cell(priority float64, v view, idxs []int32, clip grid.Box) int {
	if len(idxs) == 0 {
		return r.graph.Add(priority, nil)
	}
	return r.graph.Add(priority, func(w int) {
		applySymPoints(v, &r.c, r.pts, idxs, clip, r.worker(w))
	})
}

// worker returns worker w's block scratch, which the worker allocates on
// its first task. Allocated by the worker rather than all up front by the
// caller, the scratches measured faster: PB-SYM-DR's compute on the
// batch-hb cube at P 2 (2-vCPU AVX2 host) took 0.35-0.40 s against
// 0.42-0.45 s, in four alternating runs each.
func (r *taskRun) worker(w int) *symScratch {
	if r.scratch[w] == nil {
		r.scratch[w] = newSymScratch(&r.c, symBlock)
	}
	return r.scratch[w]
}
