package grid

import (
	"fmt"

	"repro/internal/par"
)

// Ring is a temporal ring-buffer view of a density volume: a window of Gt
// voxel layers whose logical frame slides forward in time without ever
// copying the grid. It reuses the Spec.OT frame-offset machinery — the
// ring's spec is a temporal sub-spec of a conceptually unbounded root
// problem, and Advance shifts OT so CenterT keeps sampling root-frame voxel
// centers exactly.
//
// Storage is the same [X][Y][T] layout as Grid, but the T axis is circular
// and Gt+Ht layers long: logical layer T lives at physical layer
// (base+T) mod (Gt+Ht). Logical layers [0, Gt) are the visible window;
// [Gt, Gt+Ht) are hidden layers just past its end, where a writer puts the
// part of an event's temporal support the window has yet to reach (Ht is
// the temporal bandwidth in layers, so an event inside the window reaches
// no further). Readers — At, Snapshot and the sketch's BoxSum and TopK —
// see the visible layers only. Advancing the window by k whole voxels is
// an O(1) base rotation plus zeroing only the k freed layers, which become
// the newest hidden ones; every other layer keeps its accumulated
// densities in place, and the hidden layers that slide into the window
// arrive already filled. Ring is the storage behind core.Updater, the
// streaming estimator.
type Ring struct {
	spec   Spec
	layers int // physical layers, Gt+Ht: the row stride of Data
	base   int // physical layer holding logical layer 0

	// Data is the backing array, len Gx*Gy*(Gt+Ht), laid out like
	// Grid.Data except for the circular, longer T axis. Exposed (like
	// Grid.Data) so the estimation engine can build writable views onto
	// physical runs.
	Data []float64

	// sketch is the optional incremental analytics index (see
	// EnableSketch); writers keep it consistent through MarkDirty and the
	// Advance/Zero hooks below.
	sketch *RingSketch

	budget *Budget
}

// RingBytes returns the memory footprint of a ring for the spec: Gt
// visible plus Ht hidden layers.
func RingBytes(s Spec) int64 { return int64(s.Gx) * int64(s.Gy) * int64(s.Gt+s.Ht) * 8 }

// NewRing allocates a zeroed ring for the spec, charging the budget if one
// is provided (the voxels are explicitly first-touched, as in NewGrid).
func NewRing(s Spec, b *Budget) (*Ring, error) {
	if err := b.Alloc(RingBytes(s)); err != nil {
		return nil, err
	}
	r := &Ring{spec: s, layers: s.Gt + s.Ht, budget: b}
	r.Data = make([]float64, s.Gx*s.Gy*r.layers)
	zeroPar(r.Data, 1)
	return r, nil
}

// RestoreRing rebuilds a ring from a materialized window snapshot: the
// grid must hold the visible window in logical layer order (what Snapshot
// produces), and its spec — including the OT frame offset — becomes the
// ring's spec with base 0. Its rows are copied into the ring's visible
// layers and the hidden layers start zeroed; the grid stays the caller's.
// The ring is charged to b.
func RestoreRing(g *Grid, b *Budget) (*Ring, error) {
	if g == nil || g.Data == nil || len(g.Data) != g.Spec.Voxels() {
		return nil, fmt.Errorf("grid: restore ring: snapshot grid missing or mis-sized")
	}
	r, err := NewRing(g.Spec, b)
	if err != nil {
		return nil, err
	}
	gt := g.Spec.Gt
	for row := 0; row < g.Spec.Gx*g.Spec.Gy; row++ {
		copy(r.Data[row*r.layers:], g.Data[row*gt:(row+1)*gt])
	}
	return r, nil
}

// Spec returns the current window sub-spec. Its OT grows with every
// Advance, so CenterT(T) always reports root-frame voxel centers.
func (r *Ring) Spec() Spec { return r.spec }

// Layers returns the number of physical layers, Gt+Ht: the stride between
// consecutive (X, Y) rows of Data.
func (r *Ring) Layers() int { return r.layers }

// Base returns the physical layer currently holding logical layer 0.
func (r *Ring) Base() int { return r.base }

// PhysOf returns the physical layer holding logical layer T, which must
// be in [0, Gt+Ht) — the modulo would silently alias anything else.
func (r *Ring) PhysOf(T int) int { return (r.base + T) % r.layers }

// At returns the accumulated value at window voxel (X, Y, T). Like
// Grid.At, out-of-range coordinates panic; T is checked explicitly
// because the ring's circular mapping would otherwise alias it into a
// different layer — or a hidden one — instead of failing.
func (r *Ring) At(X, Y, T int) float64 {
	if T < 0 || T >= r.spec.Gt {
		panic(fmt.Sprintf("grid: ring layer %d out of window [0,%d)", T, r.spec.Gt))
	}
	return r.Data[(X*r.spec.Gy+Y)*r.layers+r.PhysOf(T)]
}

// Advance slides the window forward by k voxel layers: the base rotates,
// the spec's frame offset OT grows by k, and the k freed (oldest) layers
// are zeroed and become the newest hidden layers. The zeroing is split
// over up to p equal X strips, one per worker, the calling goroutine one
// of them (p < 1 means GOMAXPROCS). Surviving layers are untouched.
// k >= Gt+Ht zeroes the whole ring; k <= 0 is a no-op.
func (r *Ring) Advance(k, p int) {
	if k <= 0 {
		return
	}
	r.spec.OT += k
	if k >= r.layers {
		zeroPar(r.Data, p)
		r.base = 0
		if r.sketch != nil {
			r.sketch.resetZeroed()
		}
		return
	}
	// The freed physical layers are [base, base+k) mod Gt+Ht: at most two
	// runs per row.
	p0, gx, gy := r.base, r.spec.Gx, r.spec.Gy
	n1 := min(k, r.layers-p0)
	p = min(par.Threads(p), gx)
	cuts := make([]int, p+1)
	for w := range cuts {
		cuts[w] = w * gx / p
	}
	par.Strips(p, cuts, func(_, x0, x1 int) {
		for off := x0 * gy * r.layers; off < x1*gy*r.layers; off += r.layers {
			row := r.Data[off : off+r.layers]
			for j := p0; j < p0+n1; j++ {
				row[j] = 0
			}
			for j := 0; j < k-n1; j++ {
				row[j] = 0
			}
		}
	})
	// The sketch rotates for free: its blocks live in physical
	// coordinates, so only the freed layers change (whole T-blocks become
	// exactly zero, boundary blocks go dirty).
	if r.sketch != nil {
		r.sketch.zeroedPhysLayers(p0, k)
	}
	r.base = (p0 + k) % r.layers
}

// TSegment is a physically contiguous run of a ring's logical layer range:
// logical layers [T0, T1] live at physical layers [Phys, Phys+T1-T0].
type TSegment struct {
	T0, T1 int // logical (window-frame) layers, inclusive
	Phys   int // physical layer of T0
}

// Segments splits the logical layer range [t0, t1] (inclusive, within
// [0, Gt+Ht-1]) into at most two physically contiguous runs. Writers
// stream each run with ordinary stride arithmetic; a run never wraps.
func (r *Ring) Segments(t0, t1 int) []TSegment {
	if t1 < t0 {
		return nil
	}
	p0 := r.PhysOf(t0)
	n := t1 - t0 + 1
	if n1 := r.layers - p0; n > n1 {
		return []TSegment{
			{T0: t0, T1: t0 + n1 - 1, Phys: p0},
			{T0: t0 + n1, T1: t1, Phys: 0},
		}
	}
	return []TSegment{{T0: t0, T1: t1, Phys: p0}}
}

// Zero resets every voxel of the ring, hidden layers included, to zero
// (the compaction reset).
func (r *Ring) Zero() {
	zeroPar(r.Data, 1)
	if r.sketch != nil {
		r.sketch.resetZeroed()
	}
}

// Snapshot materializes the visible window as a plain Grid in logical
// layer order, charged to the given budget. A released ring reports an
// error instead of panicking — a reader can lose a release race by design
// (stream deletion vs. an in-flight snapshot).
func (r *Ring) Snapshot(b *Budget) (*Grid, error) {
	if r.Data == nil {
		return nil, fmt.Errorf("grid: ring has been released")
	}
	g, err := NewGrid(r.spec, b)
	if err != nil {
		return nil, err
	}
	gt := r.spec.Gt
	n1 := min(gt, r.layers-r.base)
	rows := r.spec.Gx * r.spec.Gy
	for row := 0; row < rows; row++ {
		src := r.Data[row*r.layers : (row+1)*r.layers]
		dst := g.Data[row*gt : (row+1)*gt]
		copy(dst[:n1], src[r.base:])
		copy(dst[n1:], src)
	}
	return g, nil
}

// Release returns the ring's memory charge (and its sketch's, if one is
// attached) to its budget. The ring must not be used afterwards.
func (r *Ring) Release() {
	if r.budget != nil {
		r.budget.Free(RingBytes(r.spec))
		r.budget = nil
	}
	if r.sketch != nil {
		r.sketch.release()
		r.sketch = nil
	}
	r.Data = nil
}
