// Package stkde is the public API of the parallel space-time kernel density
// estimation library, a from-scratch Go reproduction of Saule, Panchananam,
// Hohl, Tang and Delmelle, "Parallel Space-Time Kernel Density Estimation"
// (ICPP 2017, arXiv:1705.09366).
//
// STKDE turns a set of events located in space and time (disease cases,
// geolocated posts, wildlife observations) into a discretized 3-D density
// volume — the first, and most expensive, step of space-time-cube
// visualization:
//
//	f(x,y,t) = 1/(n*hs^2*ht) * sum over events within bandwidths of
//	           ks((x-xi)/hs, (y-yi)/hs) * kt((t-ti)/ht)
//
// # Quick start
//
//	spec, err := stkde.NewSpec(stkde.Domain{GX: 1000, GY: 800, GT: 365},
//	    10, 1,      // spatial / temporal resolution
//	    50, 7)      // spatial / temporal bandwidth
//	if err != nil { ... }
//	res, err := stkde.Estimate(stkde.AlgPBSYMPDSCHED, points, spec, stkde.Options{})
//	if err != nil { ... }
//	density := res.Grid.At(X, Y, T)
//
// # Algorithms
//
// Twelve algorithms are provided, spanning the paper's engineering ladder
// from the quadratic voxel-based gold standard (AlgVB) to the work-efficient
// scheduled point decomposition (AlgPBSYMPDSCHEDREP). They all produce the
// same density volume; they differ in time, memory and scalability. Use
// AutoEstimate to let the Section 6.5 parametric model pick for you.
package stkde

import (
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/simd"
)

// Core geometry types.
type (
	// Point is an event located in two spatial dimensions and time.
	Point = grid.Point
	// Domain is the region of space-time covered by the analysis.
	Domain = grid.Domain
	// Spec is a fully-derived problem description (domain, resolutions,
	// bandwidths, voxel grid sizes).
	Spec = grid.Spec
	// Grid is the dense 3-D output volume of density estimates.
	Grid = grid.Grid
	// Box is an axis-aligned voxel box with inclusive bounds.
	Box = grid.Box
	// Budget caps the memory the estimators may allocate.
	Budget = grid.Budget
)

// Estimation types.
type (
	// Options configures an estimation run (threads, decomposition,
	// kernels, memory budget).
	Options = core.Options
	// Result is a computed density grid plus phase timings and statistics.
	Result = core.Result
	// Phases records per-phase wall-clock durations.
	Phases = core.Phases
	// Stats reports work counters and schedule structure.
	Stats = core.Stats
)

// Kernel interfaces (see the Kernels helpers below for implementations).
type (
	// SpatialKernel is a 2-D kernel on bandwidth-normalized offsets.
	SpatialKernel = kernel.Spatial
	// TemporalKernel is a 1-D kernel on bandwidth-normalized offsets.
	TemporalKernel = kernel.Temporal
)

// Algorithm identifiers, in the paper's presentation order.
const (
	AlgVB              = core.AlgVB
	AlgVBDEC           = core.AlgVBDEC
	AlgPB              = core.AlgPB
	AlgPBDISK          = core.AlgPBDISK
	AlgPBBAR           = core.AlgPBBAR
	AlgPBSYM           = core.AlgPBSYM
	AlgPBSYMDR         = core.AlgPBSYMDR
	AlgPBSYMDD         = core.AlgPBSYMDD
	AlgPBSYMPD         = core.AlgPBSYMPD
	AlgPBSYMPDSCHED    = core.AlgPBSYMPDSCHED
	AlgPBSYMPDREP      = core.AlgPBSYMPDREP
	AlgPBSYMPDSCHEDREP = core.AlgPBSYMPDSCHREP
)

// ErrMemoryBudget is returned when an estimation would exceed its Budget.
var ErrMemoryBudget = grid.ErrMemoryBudget

// NewSpec builds a problem description from the continuous domain, the
// resolutions, and the bandwidths. See the package example for typical
// values.
func NewSpec(d Domain, sres, tres, hs, ht float64) (Spec, error) {
	return grid.NewSpec(d, sres, tres, hs, ht)
}

// NewBudget creates a memory budget of the given number of bytes
// (non-positive means tracked but unlimited).
func NewBudget(bytes int64) *Budget { return grid.NewBudget(bytes) }

// Algorithms returns every algorithm identifier.
func Algorithms() []string { return core.Algorithms() }

// ValidAlgorithm reports whether name is a known algorithm identifier.
func ValidAlgorithm(name string) bool { return core.ValidAlgorithm(name) }

// ParallelAlgorithms returns the multi-thread algorithm identifiers.
func ParallelAlgorithms() []string { return core.ParallelAlgorithms() }

// EngineISA reports the instruction set the span engine's fill kernels
// dispatch to on this host: "avx2" when the vectorized kernels are active,
// "scalar" on other architectures or when built with the purego tag. The
// choice is made once at startup and never changes.
func EngineISA() string { return simd.Active() }

// Estimate computes the STKDE of pts on spec with the named algorithm.
func Estimate(algorithm string, pts []Point, spec Spec, opt Options) (*Result, error) {
	return core.Estimate(algorithm, pts, spec, opt)
}

// AutoEstimate runs the parametric performance model of the paper's
// Section 6.5 to pick the fastest feasible strategy for this instance and
// machine, then runs it. The chosen algorithm is in Result.Algorithm.
func AutoEstimate(pts []Point, spec Spec, opt Options) (*Result, error) {
	o := opt
	if o.Decomp == [3]int{} {
		o.Decomp = [3]int{8, 8, 8}
	}
	w := model.NewWorkload(pts, spec, o.Decomp)
	threads := o.Threads
	if threads < 1 {
		threads = 0
	}
	mem := int64(0)
	if o.Budget != nil {
		mem = o.Budget.Limit()
	}
	m := model.Calibrate(threadsOrDefault(threads), mem)
	alg, _ := model.Pick(w, m)
	return core.Estimate(alg, pts, spec, o)
}

// PredictStrategies returns the parametric model's runtime and memory
// prediction for every strategy, fastest feasible first.
func PredictStrategies(pts []Point, spec Spec, threads int, memBytes int64) []Prediction {
	w := model.NewWorkload(pts, spec, [3]int{8, 8, 8})
	m := model.Calibrate(threadsOrDefault(threads), memBytes)
	return model.Predict(w, m)
}

// Prediction is the modeled cost of one strategy.
type Prediction = model.Prediction

func threadsOrDefault(t int) int {
	if t < 1 {
		return 0
	}
	return t
}

// Kernels groups the provided kernel functions. The zero Options uses
// Kernels.Epanechnikov2D / Epanechnikov1D, the paper's kernels.
var Kernels = struct {
	Epanechnikov2D SpatialKernel
	Quartic2D      SpatialKernel
	Triweight2D    SpatialKernel
	Uniform2D      SpatialKernel
	Cone2D         SpatialKernel
	Epanechnikov1D TemporalKernel
	Quartic1D      TemporalKernel
	Triweight1D    TemporalKernel
	Uniform1D      TemporalKernel
	Triangle1D     TemporalKernel
}{
	Epanechnikov2D: kernel.Epanechnikov2D{},
	Quartic2D:      kernel.Quartic2D{},
	Triweight2D:    kernel.Triweight2D{},
	Uniform2D:      kernel.Uniform2D{},
	Cone2D:         kernel.Cone2D{},
	Epanechnikov1D: kernel.Epanechnikov1D{},
	Quartic1D:      kernel.Quartic1D{},
	Triweight1D:    kernel.Triweight1D{},
	Uniform1D:      kernel.Uniform1D{},
	Triangle1D:     kernel.Triangle1D{},
}

// SpatialKernelByName resolves a spatial kernel by name ("" = default).
func SpatialKernelByName(name string) SpatialKernel { return kernel.SpatialByName(name) }

// TemporalKernelByName resolves a temporal kernel by name ("" = default).
func TemporalKernelByName(name string) TemporalKernel { return kernel.TemporalByName(name) }
