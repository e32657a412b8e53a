package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/data"
	"repro/stkde"
)

// The two gated batch calls. pb-sym on one thread is the paper's
// sequential baseline; pb-sym-pd-sched at 8³ on every core is the parallel
// strategy that is faster than it on both a compute-bound and an
// init-bound instance on two cores (pb-sym-dd at 8³ is not).
const (
	algSeq = stkde.AlgPBSYM
	algPar = stkde.AlgPBSYMPDSCHED
)

var parDecomp = [3]int{8, 8, 8}

// cubePlan sizes a cube stage: reps timed calls of each of the two batch
// entry points after warmups discarded ones.
type cubePlan struct {
	warmups int
	reps    int
	// maxSeqSpread, when positive, makes the run invalid if the quartile
	// spread of the sequential timings exceeds this share of their median:
	// the guard against the fresh-page / recycled-page bimodality of large
	// grids.
	maxSeqSpread float64
}

// cubeStage times stkde.Estimate — the batch user's whole interface.
type cubeStage struct {
	plan cubePlan
	seed uint64
	gen  func() (instance, error) // the event set to estimate, generated in set-up
	inst instance

	seq, par       sample // seconds per timed call
	seqRes, parRes *stkde.Result
	// firstPairMB is the resident high-water mark once the stage's first
	// cube of each algorithm stands: see setup.
	firstPairMB float64
}

func (c *cubeStage) opts(alg string) stkde.Options {
	if alg == algSeq {
		return stkde.Options{Threads: 1}
	}
	return stkde.Options{Threads: nproc(), Decomp: parDecomp}
}

// estimate runs one call; the previous result of the same algorithm is
// dropped and collected first, so at most two grids are ever live and every
// timed call finds the heap in the same state.
func (c *cubeStage) estimate(alg string, tr *tracer) (time.Duration, error) {
	keep := &c.seqRes
	if alg == algPar {
		keep = &c.parRes
	}
	*keep = nil
	runtime.GC()
	t0 := time.Now()
	res, err := stkde.Estimate(alg, c.inst.pts, c.inst.spec, c.opts(alg))
	t1 := time.Now()
	if err != nil {
		return 0, fmt.Errorf("%s on %s: %w", alg, c.inst.name, err)
	}
	*keep = res
	if tr != nil {
		op := tr.newOp()
		root := tr.add(0, op, "estimate:"+alg, t0, t1, res.Stats.Updates)
		// The engine reports its phases as durations; lay them end to end
		// from the call's start. What is left of the root is the call's
		// own overhead (option defaults, result assembly).
		tag := "core.seq."
		if alg == algPar {
			tag = "core.par."
		}
		at := t0
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{
			{"init", res.Phases.Init}, {"bin", res.Phases.Bin}, {"plan", res.Phases.Plan},
			{"compute", res.Phases.Compute}, {"reduce", res.Phases.Reduce},
		} {
			if ph.d > 0 {
				tr.add(root, op, tag+ph.name, at, at.Add(ph.d), 0)
				at = at.Add(ph.d)
			}
		}
	}
	return t1.Sub(t0), nil
}

// pinHeap turns the collector's pacing off for the duration of a cube
// stage, its repeated set-ups included: collections happen only where
// estimate asks for one, outside the timed region, and a freed grid's pages
// are there for the next grid. The scavenger is not off with it: it still
// returns idle pages beyond a tenth of the heap in use, so once the heap has
// grown a spare grid-sized range (see setup) that range goes back to the
// system and the rare grid that lands on it pays the first touch again.
func pinHeap() (restore func()) {
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// setup generates the instance and runs the discarded warm-ups: afterwards
// the heap has held its two steady-state grids and the instruction and data
// caches are warm. A repeated set-up keeps the last one's two grids until
// estimate replaces them one at a time, exactly as the timed reps do: were
// they dropped first, the new event set would be carved out of one of the
// freed half-gigabyte spans and the next grid would no longer fit in it —
// fresh pages again, at random.
//
// The first pair of the first set-up is where a batch workload's memory is
// read. Those two grids are the only ones carved from a heap with no holes
// in it, so the mark is the same on every run. Later it is not: a freed
// grid's pages go to the next grid only if nothing else got there first, and
// pb-sym-pd-sched bins and plans before it allocates. So, at a call nobody
// chose (a parallel one, each time looked at), a third grid-sized range appears and stays:
// 16 MB of 47 on batch-hb, in two runs of ten.
func (c *cubeStage) setup() (err error) {
	first := c.seqRes == nil && c.parRes == nil
	if c.inst, err = c.gen(); err != nil {
		return err
	}
	for i := 0; i < c.plan.warmups; i++ {
		for _, alg := range []string{algSeq, algPar} {
			if _, err := c.estimate(alg, nil); err != nil {
				return err
			}
		}
		if first && i == 0 {
			c.firstPairMB = peakRSSMB()
		}
	}
	return nil
}

func (c *cubeStage) measure(tr *tracer, rep *report) error {
	c.seq, c.par = nil, nil
	for i := 0; i < c.plan.reps; i++ {
		d, err := c.estimate(algSeq, tr)
		if err != nil {
			return err
		}
		c.seq = append(c.seq, d.Seconds())
		if d, err = c.estimate(algPar, tr); err != nil {
			return err
		}
		c.par = append(c.par, d.Seconds())
	}
	rep.ops(2*c.plan.reps, 0, nil)
	return nil
}

// check is the batch correctness gate: both cubes against the exact point
// evaluator on 256 seeded voxels, and the parallel cube against the
// sequential one on every voxel, all to the repo's ≤1e-9 relative contract.
func (c *cubeStage) check(rep *report) error {
	const probes = 256
	spec := c.inst.spec
	q := stkde.NewQuery(c.inst.pts, spec, stkde.Options{})
	r := data.NewRNG(c.seed ^ 0xC0BE)
	for i := 0; i < probes; i++ {
		var X, Y, T int
		if i%2 == 0 && len(c.inst.pts) > 0 {
			// Half the probes sit on an event's home voxel: on a sparse
			// instance a uniform draw would compare zeros with zeros.
			X, Y, T = spec.VoxelOf(c.inst.pts[r.IntN(len(c.inst.pts))])
		} else {
			X, Y, T = r.IntN(spec.Gx), r.IntN(spec.Gy), r.IntN(spec.Gt)
		}
		want := q.At(spec.CenterX(X), spec.CenterY(Y), spec.CenterT(T))
		for _, res := range []*stkde.Result{c.seqRes, c.parRes} {
			got := res.Grid.At(X, Y, T)
			rep.expect(closeRel(got, want, 1e-9),
				"%s %s voxel (%d,%d,%d): %g, exact evaluator says %g", c.inst.name, res.Algorithm, X, Y, T, got, want)
		}
	}
	differ := -1
	for i, a := range c.seqRes.Grid.Data {
		if !closeRel(a, c.parRes.Grid.Data[i], 1e-9) {
			differ = i
			break
		}
	}
	rep.expect(differ < 0, "%s: %s and %s differ beyond 1e-9 (first at flat index %d)", c.inst.name, algPar, algSeq, differ)
	if lim := c.plan.maxSeqSpread; lim > 0 {
		rep.expect(c.seq.spread() <= lim,
			"%s: %s timings are not steady: quartile spread %.1f%% of the median (limit %.0f%%), n=%d",
			c.inst.name, algSeq, 100*c.seq.spread(), 100*lim, len(c.seq))
	}
	return nil
}

func (c *cubeStage) teardown() error {
	c.seqRes, c.parRes = nil, nil
	return nil
}

// endToEnd: one answer is one sequential cube; the work a second buys is
// voxels of finished cube through the parallel strategy.
func (c *cubeStage) endToEnd(m metrics) {
	m["latency_p50_ms"] = c.seq.median() * 1e3
	m["throughput_per_s"] = float64(c.inst.spec.Voxels()) / c.par.median()
}

// layer reports the two gated calls under the names the issue gave them.
func (c *cubeStage) layer(m metrics) {
	m["core.cube_seq_s"] = c.seq.median()
	m["core.cube_par_s"] = c.par.median()
}
