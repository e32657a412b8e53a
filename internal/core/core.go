// Package core implements the full algorithm family of Saule et al.,
// "Parallel Space-Time Kernel Density Estimation" (ICPP 2017):
//
// Sequential algorithm engineering (Sections 2-3):
//
//	VB                voxel-based gold standard, Θ(Gx·Gy·Gt·n)
//	VB-DEC            voxel-based with bandwidth-sized point blocks
//	PB                point-based, Θ(Gx·Gy·Gt + n·Hs²·Ht)
//	PB-DISK           spatial invariant (disk) computed once per point
//	PB-BAR            temporal invariant (bar) computed once per point
//	PB-SYM            both invariants; voxel update is a single multiply-add
//
// Domain-based parallelism (Section 4):
//
//	PB-SYM-DR         domain replication: per-thread grid copies + reduction
//	PB-SYM-DD         domain decomposition: cut cylinders, independent cells
//
// Point-based parallelism (Section 5):
//
//	PB-SYM-PD           checkerboard parity sets over subdomains (8 barriers)
//	PB-SYM-PD-SCHED     load-aware greedy coloring + dependency-DAG execution
//	PB-SYM-PD-REP       moldable replication of critical-path subdomains
//	PB-SYM-PD-SCHED-REP load-aware coloring combined with replication
//
// Every algorithm produces the same density grid (up to floating-point
// summation order); the test suite asserts agreement with VB.
package core

import (
	"fmt"
	"time"

	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/par"
)

// Algorithm names accepted by Estimate.
const (
	AlgVB            = "vb"
	AlgVBDEC         = "vb-dec"
	AlgPB            = "pb"
	AlgPBDISK        = "pb-disk"
	AlgPBBAR         = "pb-bar"
	AlgPBSYM         = "pb-sym"
	AlgPBSYMDR       = "pb-sym-dr"
	AlgPBSYMDD       = "pb-sym-dd"
	AlgPBSYMPD       = "pb-sym-pd"
	AlgPBSYMPDSCHED  = "pb-sym-pd-sched"
	AlgPBSYMPDREP    = "pb-sym-pd-rep"
	AlgPBSYMPDSCHREP = "pb-sym-pd-sched-rep"
)

// algorithms is every algorithm name in presentation order (the order used
// by the paper's tables), built once at package init.
var algorithms = []string{
	AlgVB, AlgVBDEC, AlgPB, AlgPBDISK, AlgPBBAR, AlgPBSYM,
	AlgPBSYMDR, AlgPBSYMDD,
	AlgPBSYMPD, AlgPBSYMPDSCHED, AlgPBSYMPDREP, AlgPBSYMPDSCHREP,
}

// estimators maps algorithm names to implementations, built once at package
// init so Estimate and ValidAlgorithm never rebuild it.
var estimators = map[string]estimator{
	AlgVB:            runVB,
	AlgVBDEC:         runVBDEC,
	AlgPB:            runPB,
	AlgPBDISK:        runPBDISK,
	AlgPBBAR:         runPBBAR,
	AlgPBSYM:         runPBSYM,
	AlgPBSYMDR:       runDR,
	AlgPBSYMDD:       runDD,
	AlgPBSYMPD:       runPD,
	AlgPBSYMPDSCHED:  runPDSched,
	AlgPBSYMPDREP:    runPDRep,
	AlgPBSYMPDSCHREP: runPDSchedRep,
}

// Algorithms returns every algorithm name in presentation order (the order
// used by the paper's tables). The returned slice is a copy; callers may
// mutate it.
func Algorithms() []string {
	return append([]string(nil), algorithms...)
}

// ValidAlgorithm reports whether name is a known algorithm identifier —
// the single membership check behind every user-facing name validation
// (CLI flags, the serving API).
func ValidAlgorithm(name string) bool {
	_, ok := estimators[name]
	return ok
}

// SequentialAlgorithms returns the Section 2-3 algorithms.
func SequentialAlgorithms() []string {
	return []string{AlgVB, AlgVBDEC, AlgPB, AlgPBDISK, AlgPBBAR, AlgPBSYM}
}

// ParallelAlgorithms returns the Section 4-5 algorithms.
func ParallelAlgorithms() []string {
	return []string{
		AlgPBSYMDR, AlgPBSYMDD,
		AlgPBSYMPD, AlgPBSYMPDSCHED, AlgPBSYMPDREP, AlgPBSYMPDSCHREP,
	}
}

// Options configures an estimation run. The zero value is valid: it uses
// GOMAXPROCS threads, the paper's Epanechnikov kernels, an automatic
// decomposition, and no memory budget. There is one compute engine, the
// span engine of cylinder.go; it picks its devirtualized and vector paths
// from the kernels and the host, so no option selects it. The bandwidths
// are the Spec's, one pair for every point of the estimate.
type Options struct {
	// Threads is the number of workers P. Values < 1 mean GOMAXPROCS.
	Threads int

	// Decomp is the A x B x C subdomain decomposition used by PB-SYM-DD and
	// the PB-SYM-PD family. A zero value selects an automatic decomposition.
	// PD variants additionally shrink it to satisfy the minimum subdomain
	// size requirement (Section 5.1).
	Decomp [3]int

	// Budget, when non-nil, bounds the memory the estimator may allocate
	// for grids and replication buffers. Exceeding it fails the run with
	// grid.ErrMemoryBudget (the paper's "out of memory" annotations).
	Budget *grid.Budget

	// Spatial and Temporal override the kernel functions. Defaults are the
	// paper's Epanechnikov kernels.
	Spatial  kernel.Spatial
	Temporal kernel.Temporal

	// NormN, when positive, overrides the point count n in the 1/(n·hs²·ht)
	// normalization of the density formula. A distributed rank estimating a
	// temporal slab (see repro/internal/dist) passes the global dataset size
	// here: its local point set is only a subset of the full dataset, but
	// every voxel must be normalized as the full dataset's density. Zero
	// (the default) normalizes by len(pts).
	NormN int

	// NoSort disables the Morton-order locality pre-pass that all
	// point-based algorithms run before streaming cylinders into the grid.
	// Estimation stays correct either way (only the floating-point
	// summation order changes); the knob exists for A/B benchmarking.
	NoSort bool
}

func (o Options) withDefaults() Options {
	o.Threads = par.Threads(o.Threads)
	if o.Spatial == nil {
		o.Spatial = kernel.DefaultSpatial()
	}
	if o.Temporal == nil {
		o.Temporal = kernel.DefaultTemporal()
	}
	return o
}

// autoDecomp picks a decomposition when the caller did not: roughly 4
// subdomains per thread along each axis-balanced split.
func (o Options) autoDecomp(s grid.Spec) [3]int {
	if o.Decomp != [3]int{} {
		return o.Decomp
	}
	// Aim for ~32 * Threads cells, cube-rooted per axis.
	target := 32 * o.Threads
	k := 1
	for k*k*k < target {
		k++
	}
	return [3]int{k, k, k}
}

// Phases records wall-clock time per execution phase. Phases that an
// algorithm does not have remain zero.
type Phases struct {
	Init    time.Duration // allocating/zeroing the density grid(s)
	Bin     time.Duration // assigning points to blocks/subdomains
	Plan    time.Duration // coloring, scheduling, replication planning
	Compute time.Duration // kernel evaluation and voxel updates
	Reduce  time.Duration // merging replicated grids/buffers
}

// Total returns the sum of all phases.
func (p Phases) Total() time.Duration {
	return p.Init + p.Bin + p.Plan + p.Compute + p.Reduce
}

// Stats reports work and schedule structure of a run, the quantities behind
// the paper's Figures 9 and 12.
type Stats struct {
	N       int    // number of points
	Threads int    // workers used
	Decomp  [3]int // effective decomposition (after PD adjustment)
	Cells   int    // number of subdomains
	Colors  int    // colors used by the coloring (PD family)

	// Updates counts voxel accumulate operations; SKEvals/TKEvals count
	// spatial/temporal kernel evaluations. Together they expose the work
	// overheads of DD (cut cylinders) and REP (buffer init + reduce).
	Updates int64
	SKEvals int64
	TKEvals int64

	// SpanProbes counts evaluations of the disk-span predicate
	// dx^2+dy^2 < hs^2 that place the in-disk Y range of each X column
	// (diskSpans), the engine's per-column cost outside the kernels.
	SpanProbes int64

	// PointAssignments is the total number of (point, subdomain)
	// assignments; for PB-SYM-DD values above N measure point replication.
	PointAssignments int64

	// TotalWork and CriticalPath describe the dependency DAG of the PD
	// family in modeled work units; CriticalPathRel = CriticalPath/TotalWork
	// is what Figure 12 plots. GrahamBound converts them into the classic
	// makespan bound.
	TotalWork       float64
	CriticalPath    float64
	CriticalPathRel float64
	GrahamBound     float64

	// Replication outcome (PB-SYM-PD-REP).
	ReplicatedCells int
	MaxReplication  int
	BufferBytes     int64
}

// Result is the outcome of an estimation run.
type Result struct {
	Algorithm string
	Grid      *grid.Grid
	Phases    Phases
	Stats     Stats
}

type estimator func(pts []grid.Point, spec grid.Spec, opt Options) (*Result, error)

// sortedByMorton is the shared locality pre-pass: it returns pts reordered
// by the Z-order index of each point's home voxel so consecutive cylinder
// updates touch cache-adjacent grid rows, plus the wall-clock time spent
// (charged to Phases.Bin by callers). The input is never mutated; with
// NoSort the pass is free and the input is returned as-is.
func sortedByMorton(pts []grid.Point, spec grid.Spec, opt Options) ([]grid.Point, time.Duration) {
	if opt.NoSort || len(pts) < 2 {
		return pts, 0
	}
	t0 := time.Now()
	sorted := grid.SortByMorton(pts, spec)
	return sorted, time.Since(t0)
}

// Estimate computes the space-time kernel density estimate of pts on the
// discretized domain described by spec, using the named algorithm.
func Estimate(algorithm string, pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	fn, ok := estimators[algorithm]
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q (known: %v)", algorithm, Algorithms())
	}
	opt = opt.withDefaults()
	res, err := fn(pts, spec, opt)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", algorithm, err)
	}
	res.Algorithm = algorithm
	res.Stats.N = len(pts)
	res.Stats.Threads = opt.Threads
	return res, nil
}
