// Package grid provides the spatial substrate for space-time kernel density
// estimation: event points, the continuous domain, its discretization into
// voxels, the dense 3-D density grid, integer box algebra, subdomain
// decompositions, and memory-budget accounting.
//
// Conventions follow Table 1 of Saule et al., "Parallel Space-Time Kernel
// Density Estimation" (ICPP 2017): lowercase quantities (hs, ht, gx, ...)
// live in domain space, uppercase quantities (Hs, Ht, Gx, ...) are measured
// in voxels.
package grid

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/par"
)

// Point is an event localized in two spatial dimensions and time, in domain
// coordinates (e.g. meters and days).
type Point struct {
	X, Y, T float64
}

// Domain is the axis-aligned region of space-time covered by the analysis.
// It spans [X0, X0+GX) x [Y0, Y0+GY) x [T0, T0+GT) in domain units.
type Domain struct {
	X0, Y0, T0 float64 // origin of the domain
	GX, GY, GT float64 // extent of the domain (gx, gy, gt in the paper)
}

// Contains reports whether p lies inside the domain.
func (d Domain) Contains(p Point) bool {
	return p.X >= d.X0 && p.X < d.X0+d.GX &&
		p.Y >= d.Y0 && p.Y < d.Y0+d.GY &&
		p.T >= d.T0 && p.T < d.T0+d.GT
}

// Spec fully describes a discretized STKDE problem: the continuous domain,
// the spatial and temporal resolutions, and the kernel bandwidths. The
// voxel-space quantities (Gx, Gy, Gt, Hs, Ht) are derived on construction.
//
// A Spec may also describe a temporal sub-spec of a root problem (see
// SubSpecT): the OT field shifts the voxel frame so that local layer 0
// corresponds to layer OT of the root grid, while Domain stays the root
// domain. CenterT and VoxelOf account for the shift, so every estimator
// evaluates the exact same voxel centers it would in the root frame.
//
// CenterX, CenterY, CenterT, VoxelOf and InfluenceBox take a pointer: the
// engine calls the first three once per voxel column and the last two once
// per point, and a value receiver copies all 128 bytes of the Spec on every
// call, even inlined.
type Spec struct {
	Domain Domain

	SRes float64 // spatial resolution (domain units per voxel edge)
	TRes float64 // temporal resolution (domain units per voxel edge)

	HS float64 // spatial bandwidth hs in domain units
	HT float64 // temporal bandwidth ht in domain units

	Gx, Gy, Gt int // grid size in voxels: ceil(g/res)
	Hs, Ht     int // bandwidth in voxels: ceil(h/res)

	// OT is the temporal frame offset in voxels: local layer T samples the
	// time of root layer T+OT. Zero for a root spec; set by SubSpecT.
	OT int
}

// maxVoxelCount bounds every derived voxel-space quantity: at 2^52 a
// float64 stops counting single voxels, and past the platform's largest
// int the conversion overflows.
const maxVoxelCount = min(1<<52, math.MaxInt)

// NewSpec validates the inputs and derives the voxel-space quantities.
func NewSpec(d Domain, sres, tres, hs, ht float64) (Spec, error) {
	for _, v := range [...]float64{d.X0, d.Y0, d.T0, d.GX, d.GY, d.GT, sres, tres, hs, ht} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Spec{}, fmt.Errorf("grid: domain, resolutions and bandwidths must be finite, got domain (%g, %g, %g)+(%g, %g, %g) sres=%g tres=%g hs=%g ht=%g",
				d.X0, d.Y0, d.T0, d.GX, d.GY, d.GT, sres, tres, hs, ht)
		}
	}
	switch {
	case d.GX <= 0 || d.GY <= 0 || d.GT <= 0:
		return Spec{}, fmt.Errorf("grid: domain extents must be positive, got (%g, %g, %g)", d.GX, d.GY, d.GT)
	case sres <= 0 || tres <= 0:
		return Spec{}, fmt.Errorf("grid: resolutions must be positive, got sres=%g tres=%g", sres, tres)
	case hs <= 0 || ht <= 0:
		return Spec{}, fmt.Errorf("grid: bandwidths must be positive, got hs=%g ht=%g", hs, ht)
	}
	gx, gy, gt := math.Ceil(d.GX/sres), math.Ceil(d.GY/sres), math.Ceil(d.GT/tres)
	hsv, htv := math.Ceil(hs/sres), math.Ceil(ht/tres)
	if max(gx, gy, gt, hsv, htv) >= maxVoxelCount {
		return Spec{}, fmt.Errorf("grid: derived voxel counts %gx%gx%g (Hs %g, Ht %g) reach the %d limit; coarsen sres/tres or shrink the domain and bandwidths",
			gx, gy, gt, hsv, htv, maxVoxelCount)
	}
	s := Spec{
		Domain: d,
		SRes:   sres, TRes: tres,
		HS: hs, HT: ht,
		Gx: int(gx), Gy: int(gy), Gt: int(gt),
		Hs: int(hsv), Ht: int(htv),
	}
	if s.Gx <= 0 || s.Gy <= 0 || s.Gt <= 0 {
		return Spec{}, fmt.Errorf("grid: derived grid is empty: %dx%dx%d", s.Gx, s.Gy, s.Gt)
	}
	return s, nil
}

// Voxels returns the total number of voxels Gx*Gy*Gt.
func (s Spec) Voxels() int { return s.Gx * s.Gy * s.Gt }

// Bytes returns the memory footprint of one density grid for this spec.
func (s Spec) Bytes() int64 { return int64(s.Voxels()) * 8 }

// Bounds returns the full voxel box [0,Gx-1]x[0,Gy-1]x[0,Gt-1].
func (s Spec) Bounds() Box {
	return Box{0, s.Gx - 1, 0, s.Gy - 1, 0, s.Gt - 1}
}

// CenterX returns the continuous x coordinate sampled by voxel column X.
// Voxels sample cell centers: x = X0 + (X+1/2)*sres.
func (s *Spec) CenterX(X int) float64 { return s.Domain.X0 + (float64(X)+0.5)*s.SRes }

// CenterY returns the continuous y coordinate sampled by voxel row Y.
func (s *Spec) CenterY(Y int) float64 { return s.Domain.Y0 + (float64(Y)+0.5)*s.SRes }

// CenterT returns the continuous t coordinate sampled by voxel layer T.
// For a sub-spec the offset makes CenterT(T) bitwise equal to the root
// spec's CenterT(T+OT), which is what makes sub-spec estimation exact.
func (s *Spec) CenterT(T int) float64 { return s.Domain.T0 + (float64(T+s.OT)+0.5)*s.TRes }

// maxFrame bounds the frame offsets a sliding window reaches: every one
// lies strictly between -maxFrame and maxFrame. Past 2^52 a float64 layer
// index stops being integer-exact, and the quarter of MaxInt keeps the
// frame arithmetic (OT+Gt, 2·maxFrame+1) inside a 32-bit int.
const maxFrame = min(1<<52, math.MaxInt>>2)

// AdvanceLayers returns how many layers a window on s slides so that its
// last layer covers time t; a result <= 0 means no advance. A NaN or an
// absurd target (a layer index outside ±maxFrame, where the float-to-int
// conversion stops being exact or fitting an int) is no advance, so it
// cannot corrupt a stream's frame offset for the rest of its life.
func (s Spec) AdvanceLayers(t float64) int {
	rel := math.Floor((t - s.Domain.T0) / s.TRes)
	if !(rel > -maxFrame && rel < maxFrame) {
		return 0
	}
	return int(rel) - (s.OT + s.Gt - 1)
}

// ExpiryOT returns the smallest frame offset OT at which an event at time
// t can no longer reach a window's first layer — the expiry predicate
// t+HT < CenterT(0), which is monotone in OT. It depends on neither s.OT
// nor s.Gt. A floor estimate is confirmed against the predicate itself;
// when float rounding moved the boundary off the estimate, or the time is
// absurd, a binary search of the reachable range places it: an event
// expired at every reachable frame maps to -maxFrame, one that never
// expires (a NaN or far-future time) to maxFrame+1.
func (s Spec) ExpiryOT(t float64) int {
	expired := func(ot int) bool { // CenterT(0) at frame ot, without copying s
		return t+s.HT < s.Domain.T0+(float64(ot)+0.5)*s.TRes
	}
	est := math.Floor((t+s.HT-s.Domain.T0)/s.TRes-0.5) + 1
	if est > -maxFrame && est < maxFrame && expired(int(est)) && !expired(int(est)-1) {
		return int(est)
	}
	return sort.Search(2*maxFrame+1, func(i int) bool { return expired(i - maxFrame) }) - maxFrame
}

// CoversT reports whether time t falls inside the spec's voxelized
// temporal window — layers [OT, OT+Gt) in the root frame. For a root spec
// this matches the domain's temporal extent (up to the final ceil-rounded
// layer); for a sub-spec or an advanced stream window it follows the
// frame offset, which Domain alone does not know about.
func (s Spec) CoversT(t float64) bool {
	layer := math.Floor((t - s.Domain.T0) / s.TRes)
	return layer >= float64(s.OT) && layer < float64(s.OT+s.Gt)
}

// VoxelOf returns the voxel containing point p, clamped to the grid so that
// boundary points (p exactly on the far domain edge) map to the last voxel.
// In a sub-spec, points outside the temporal window clamp to its first or
// last layer; their influence box then covers a superset of the voxels their
// bandwidth cylinder reaches, and the kernel distance tests zero the rest —
// so halo points replicated from a neighboring slab contribute exactly.
func (s *Spec) VoxelOf(p Point) (X, Y, T int) {
	X = clamp(int(math.Floor((p.X-s.Domain.X0)/s.SRes)), 0, s.Gx-1)
	Y = clamp(int(math.Floor((p.Y-s.Domain.Y0)/s.SRes)), 0, s.Gy-1)
	T = clamp(int(math.Floor((p.T-s.Domain.T0)/s.TRes))-s.OT, 0, s.Gt-1)
	return
}

// InfluenceBox returns the voxel box that can possibly receive density from
// point p: the point's voxel extended by (Hs, Hs, Ht) and clipped to the
// grid. Every voxel whose center lies within the continuous bandwidth
// cylinder of p is contained in this box (see TestInfluenceBoxCovers).
func (s *Spec) InfluenceBox(p Point) Box {
	X, Y, T := s.VoxelOf(p)
	return Box{
		max(X-s.Hs, 0), min(X+s.Hs, s.Gx-1),
		max(Y-s.Hs, 0), min(Y+s.Hs, s.Gy-1),
		max(T-s.Ht, 0), min(T+s.Ht, s.Gt-1),
	}
}

// NormFactor returns 1/(n*hs^2*ht), the normalization constant of the
// density estimate for n points.
func (s Spec) NormFactor(n int) float64 {
	if n == 0 {
		return 0
	}
	return 1.0 / (float64(n) * s.HS * s.HS * s.HT)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Grid is a dense 3-D array of density estimates, the voxel-space output of
// STKDE. Data is laid out with T innermost (stride 1), then Y, then X, so
// the per-point cylinder update streams over contiguous memory.
type Grid struct {
	Spec Spec
	Data []float64

	budget *Budget
}

// NewGrid allocates a zeroed grid for the spec, charging the budget if one
// is provided. It returns ErrMemoryBudget if the allocation would exceed
// the budget.
//
// The allocator's zero guarantee is Algorithm 2's "for all voxels:
// stkde = 0", and the Init phase times it: on memory the heap recycles,
// make clears the grid (serially) before it returns; on fresh pages it
// clears nothing, and only the voxels the compute writes fault in, so the
// page-fault share of a sparse instance (Figure 7) lands in Compute.
func NewGrid(s Spec, b *Budget) (*Grid, error) {
	if err := b.Alloc(s.Bytes()); err != nil {
		return nil, err
	}
	return &Grid{Spec: s, Data: make([]float64, s.Voxels()), budget: b}, nil
}

// NewGridP is NewGrid; p is unused.
func NewGridP(s Spec, b *Budget, p int) (*Grid, error) { return NewGrid(s, b) }

// minTouchBlock is the smallest number of voxels worth handing to a
// zeroing worker; below it goroutine startup costs more than the writes.
const minTouchBlock = 1 << 16

// zeroPar writes every element of data with up to p workers.
func zeroPar(data []float64, p int) {
	par.BlocksMin(p, len(data), minTouchBlock, func(_, lo, hi int) {
		chunk := data[lo:hi]
		for i := range chunk {
			chunk[i] = 0
		}
	})
}

// Release returns the grid's memory charge to its budget. The grid must not
// be used afterwards.
func (g *Grid) Release() {
	if g.budget != nil {
		g.budget.Free(g.Spec.Bytes())
		g.budget = nil
	}
	g.Data = nil
}

// Idx returns the flat index of voxel (X, Y, T).
func (g *Grid) Idx(X, Y, T int) int {
	return (X*g.Spec.Gy+Y)*g.Spec.Gt + T
}

// At returns the density estimate at voxel (X, Y, T).
func (g *Grid) At(X, Y, T int) float64 { return g.Data[g.Idx(X, Y, T)] }

// Sum returns the sum of all voxel densities. Multiplying by sres^2*tres
// approximates the integral of the density estimate over the domain.
func (g *Grid) Sum() float64 {
	var s float64
	for _, v := range g.Data {
		s += v
	}
	return s
}

// Max returns the maximum voxel density and its voxel coordinates.
func (g *Grid) Max() (v float64, X, Y, T int) {
	v = math.Inf(-1)
	best := 0
	for i, d := range g.Data {
		if d > v {
			v, best = d, i
		}
	}
	gt, gy := g.Spec.Gt, g.Spec.Gy
	T = best % gt
	Y = (best / gt) % gy
	X = best / (gt * gy)
	return
}

// Zero resets every voxel to zero.
func (g *Grid) Zero() { zeroPar(g.Data, 1) }
