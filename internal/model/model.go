// Package model implements the parametric performance model that the
// paper's Section 6.5 calls for: "develop a parametric model for the
// problem that will take into account memory availability, cost of memory
// initialization, expected cost of computing the kernel density. Using that
// model finding the best execution strategy becomes a combinatorial
// problem."
//
// The model predicts per-strategy runtime and memory from the instance
// parameters (grid size, point count, bandwidths, decomposition, and the
// per-subdomain load distribution) and machine rates measured by a quick
// calibration, then picks the fastest feasible strategy.
package model

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/sched"
	"repro/internal/stencil"
)

// Machine holds the calibrated rates of the executing machine. All rates
// are single-thread; the model applies its own scaling laws.
type Machine struct {
	Threads int   // workers available
	Mem     int64 // memory budget in bytes (0 = unlimited)

	InitBytesPerSec    float64 // grid init bandwidth: allocator clear or page faults (single thread)
	InitMaxSpeedup     float64 // parallel init saturates (paper observes ~3x)
	UpdatePerSec       float64 // PB-SYM voxel multiply-adds per second
	SpatialEvalPerSec  float64 // spatial kernel evaluations per second
	TemporalEvalPerSec float64 // temporal kernel evaluations per second
	ReduceBytesPerSec  float64 // replica reduction bandwidth (single thread)
}

// DefaultMachine returns conservative rates typical of one modern core, for
// use when calibration is not wanted (e.g. in tests).
func DefaultMachine(threads int, mem int64) Machine {
	return Machine{
		Threads:            threads,
		Mem:                mem,
		InitBytesPerSec:    4e9,
		InitMaxSpeedup:     3,
		UpdatePerSec:       800e6,
		SpatialEvalPerSec:  150e6,
		TemporalEvalPerSec: 300e6,
		ReduceBytesPerSec:  4e9,
	}
}

// Calibrate measures the machine rates with short micro-benchmarks
// (~tens of milliseconds total).
func Calibrate(threads int, mem int64) Machine {
	m := DefaultMachine(threads, mem)

	// Grid init rate: the page faults of a fresh allocation, one write per
	// page. grid.NewGrid writes no voxel, so a fresh grid's pages fault in
	// as the compute first writes them, and a recycled one is cleared
	// inside make.
	const initN = 1 << 24 // 16M float64 = 128 MB
	t0 := time.Now()
	buf := make([]float64, initN)
	for i := 0; i < initN; i += 4096 / 8 {
		buf[i] = 1 // force page touch
	}
	el := time.Since(t0).Seconds()
	if el > 0 {
		m.InitBytesPerSec = float64(initN*8) / el
	}

	// Multiply-add update rate (the PB-SYM inner loop).
	const updN = 1 << 22
	bar := buf[:256]
	for i := range bar {
		bar[i] = 0.5
	}
	row := buf[256:512]
	t0 = time.Now()
	for rep := 0; rep < updN/256; rep++ {
		ks := 1e-9 * float64(rep)
		for j := range row {
			row[j] += ks * bar[j]
		}
	}
	el = time.Since(t0).Seconds()
	if el > 0 {
		m.UpdatePerSec = float64(updN) / el
	}

	// Kernel evaluation rates (model the Epanechnikov forms directly).
	const evalN = 1 << 21
	t0 = time.Now()
	s := 0.0
	for i := 0; i < evalN; i++ {
		u := float64(i%1000) / 1000
		v := float64(i%997) / 997
		r2 := u*u + v*v
		if r2 < 1 {
			s += 0.6366 * (1 - r2)
		}
	}
	el = time.Since(t0).Seconds()
	if el > 0 {
		m.SpatialEvalPerSec = float64(evalN) / el
	}
	sinkF = s

	t0 = time.Now()
	s = 0
	for i := 0; i < evalN; i++ {
		w := float64(i%1000)/500 - 1
		if w > -1 && w < 1 {
			s += 0.75 * (1 - w*w)
		}
	}
	el = time.Since(t0).Seconds()
	if el > 0 {
		m.TemporalEvalPerSec = float64(evalN) / el
	}
	sinkF = s
	m.ReduceBytesPerSec = m.InitBytesPerSec
	return m
}

var sinkF float64 // defeats dead-code elimination in calibration loops

// Workload describes one problem instance (plus the decomposition the
// parallel strategies would use).
type Workload struct {
	Spec   grid.Spec
	N      int
	Decomp [3]int

	// CellLoads optionally carries the per-subdomain point counts of the
	// PD decomposition (after safety adjustment); when present the model
	// computes the true critical path instead of assuming balance.
	CellLoads []float64
	// PDDecomp is the adjusted decomposition matching CellLoads.
	PDDecomp [3]int
}

// NewWorkload derives a Workload (including PD cell loads) from an instance.
func NewWorkload(pts []grid.Point, spec grid.Spec, decomp [3]int) Workload {
	w := Workload{Spec: spec, N: len(pts), Decomp: decomp}
	d := grid.NewDecomp(spec, decomp[0], decomp[1], decomp[2]).AdjustForPD()
	w.PDDecomp = [3]int{d.A, d.B, d.C}
	loads := make([]float64, d.Cells())
	for _, p := range pts {
		a, b, c := d.CellOf(spec.VoxelOf(p))
		loads[d.ID(a, b, c)]++
	}
	w.CellLoads = loads
	return w
}

// Prediction is the modeled cost of one strategy.
type Prediction struct {
	Algorithm string
	Seconds   float64
	Bytes     int64
	Feasible  bool // fits in the machine's memory budget
}

// cylinder work per point, in voxel updates and kernel evaluations.
func (w Workload) perPoint() (updates, skEvals, tkEvals float64) {
	dxy := float64(2*w.Spec.Hs + 1)
	dt := float64(2*w.Spec.Ht + 1)
	return dxy * dxy * dt, dxy * dxy, dt
}

func (m Machine) initTime(bytes float64, p int) float64 {
	sp := float64(p)
	if sp > m.InitMaxSpeedup {
		sp = m.InitMaxSpeedup
	}
	return bytes / (m.InitBytesPerSec * sp)
}

// Predict models every strategy's runtime and memory on machine m.
func Predict(w Workload, m Machine) []Prediction {
	p := m.Threads
	if p < 1 {
		p = 1
	}
	gridBytes := float64(w.Spec.Bytes())
	upd, ske, tke := w.perPoint()
	n := float64(w.N)

	// Sequential PB-SYM compute: disk+bar evaluations plus the updates.
	seqCompute := n * (upd/m.UpdatePerSec + ske/m.SpatialEvalPerSec + tke/m.TemporalEvalPerSec)

	preds := make([]Prediction, 0, 6)

	// PB-SYM (sequential baseline).
	preds = append(preds, Prediction{
		Algorithm: core.AlgPBSYM,
		Seconds:   m.initTime(gridBytes, 1) + seqCompute,
		Bytes:     int64(gridBytes),
	})

	// PB-SYM-DR: P grids, pleasingly parallel compute, parallel reduction.
	drBytes := gridBytes * float64(p)
	preds = append(preds, Prediction{
		Algorithm: core.AlgPBSYMDR,
		Seconds: m.initTime(drBytes, p) + seqCompute/float64(p) +
			drBytes/(m.ReduceBytesPerSec*m.InitMaxSpeedup),
		Bytes: int64(drBytes),
	})

	// PB-SYM-DD: work overhead from cut cylinders; imbalance bounded by
	// dynamic scheduling over many cells.
	a, b, c := float64(w.Decomp[0]), float64(w.Decomp[1]), float64(w.Decomp[2])
	if a < 1 {
		a, b, c = 1, 1, 1
	}
	// Expected subdomains a cylinder touches along each axis.
	cut := func(parts float64, g int, h int) float64 {
		if parts <= 1 {
			return 1
		}
		width := float64(g) / parts
		f := 1 + float64(2*h)/width
		if f > parts {
			f = parts
		}
		return f
	}
	ddFactor := cut(a, w.Spec.Gx, w.Spec.Hs) * cut(b, w.Spec.Gy, w.Spec.Hs) * cut(c, w.Spec.Gt, w.Spec.Ht)
	preds = append(preds, Prediction{
		Algorithm: core.AlgPBSYMDD,
		Seconds:   m.initTime(gridBytes, p) + seqCompute*ddFactor/float64(p),
		Bytes:     int64(gridBytes),
	})

	// PD family: critical path from the measured cell loads.
	if len(w.CellLoads) > 0 {
		lat := stencil.Lattice{A: w.PDDecomp[0], B: w.PDDecomp[1], C: w.PDDecomp[2]}
		weights := make([]float64, len(w.CellLoads))
		perPointSec := seqCompute / n
		for i, l := range w.CellLoads {
			weights[i] = l * perPointSec
		}
		cb := stencil.Orient(lat, stencil.Checkerboard(lat))
		pdSpan := sched.Simulate(cb, weights, p)
		preds = append(preds, Prediction{
			Algorithm: core.AlgPBSYMPD,
			Seconds:   m.initTime(gridBytes, p) + pdSpan,
			Bytes:     int64(gridBytes),
		})

		gr := stencil.Orient(lat, stencil.Greedy(lat, stencil.ByLoadDesc(weights)))
		schSpan := sched.Simulate(gr, weights, p)
		preds = append(preds, Prediction{
			Algorithm: core.AlgPBSYMPDSCHED,
			Seconds:   m.initTime(gridBytes, p) + schSpan,
			Bytes:     int64(gridBytes),
		})

		// SCHED-REP: replication shortens the critical path at the price of
		// buffer init/reduce work and memory.
		d := grid.NewDecomp(w.Spec, w.PDDecomp[0], w.PDDecomp[1], w.PDDecomp[2])
		bounds := w.Spec.Bounds()
		expCount := make([]int, lat.N())
		for v := range expCount {
			expCount[v] = d.BoxID(v).Expand(w.Spec.Hs, w.Spec.Ht).Clip(bounds).Count()
		}
		bufSec := func(v, k int) float64 {
			return float64((k+1)*expCount[v]) * 8 / m.InitBytesPerSec
		}
		rep := sched.PlanReplication(gr, weights, p, bufSec)
		eff := make([]float64, lat.N())
		var bufBytes float64
		for v := range eff {
			eff[v] = weights[v] / float64(rep.Factor[v])
			if rep.Factor[v] > 1 {
				eff[v] += bufSec(v, rep.Factor[v])
				bufBytes += float64(rep.Factor[v]*expCount[v]) * 8
			}
		}
		repSpan := sched.Simulate(gr, eff, p)
		preds = append(preds, Prediction{
			Algorithm: core.AlgPBSYMPDSCHREP,
			Seconds:   m.initTime(gridBytes, p) + repSpan,
			Bytes:     int64(gridBytes + bufBytes),
		})
	}

	for i := range preds {
		preds[i].Feasible = m.Mem <= 0 || preds[i].Bytes <= m.Mem
	}
	sort.SliceStable(preds, func(i, j int) bool {
		if preds[i].Feasible != preds[j].Feasible {
			return preds[i].Feasible
		}
		return preds[i].Seconds < preds[j].Seconds
	})
	return preds
}

// Pick returns the fastest feasible strategy and the full prediction list.
// When nothing is feasible it falls back to PB-SYM (smallest footprint).
func Pick(w Workload, m Machine) (string, []Prediction) {
	preds := Predict(w, m)
	for _, pr := range preds {
		if pr.Feasible {
			return pr.Algorithm, preds
		}
	}
	return core.AlgPBSYM, preds
}
