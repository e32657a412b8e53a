package grid

import "fmt"

// Ring is a temporal ring-buffer view of a density volume: Gt voxel layers
// whose logical window slides forward in time without ever copying the
// grid. It reuses the Spec.OT frame-offset machinery — the ring's spec is a
// temporal sub-spec of a conceptually unbounded root problem, and Advance
// shifts OT so CenterT keeps sampling root-frame voxel centers exactly.
//
// Storage is the same [X][Y][T] layout as Grid, but the T axis is circular:
// logical layer T lives at physical layer (base+T) mod Gt. Advancing the
// window by k whole voxels is an O(1) base rotation plus zeroing only the k
// freed layers; the Gt-k surviving layers keep their accumulated densities
// in place. Ring is the storage behind core.Updater, the streaming
// estimator.
type Ring struct {
	spec Spec
	base int // physical layer holding logical layer 0

	// Data is the backing array, len Gx*Gy*Gt, laid out like Grid.Data
	// except for the circular T axis. Exposed (like Grid.Data) so the
	// estimation engine can build writable views onto physical runs.
	Data []float64

	// sketch is the optional incremental analytics index (see
	// EnableSketch); writers keep it consistent through MarkDirty and the
	// Advance/Zero hooks below.
	sketch *RingSketch

	budget *Budget
}

// NewRing allocates a zeroed ring for the spec, charging the budget if one
// is provided (the voxels are explicitly first-touched, as in NewGrid).
func NewRing(s Spec, b *Budget) (*Ring, error) {
	if err := b.Alloc(s.Bytes()); err != nil {
		return nil, err
	}
	data := make([]float64, s.Voxels())
	zeroPar(data, 1)
	return &Ring{spec: s, Data: data, budget: b}, nil
}

// RestoreRing rebuilds a ring from a materialized window snapshot: the
// grid must hold the window in logical layer order (what Snapshot
// produces), its spec — including the OT frame offset — becomes the ring's
// spec with base 0, and its data array is adopted as the ring's backing
// store, so the grid must not be used afterwards. The ring is charged to
// b; pass the grid unaccounted (NewGrid with a nil budget, or a gio read)
// or the bytes would be charged twice.
func RestoreRing(g *Grid, b *Budget) (*Ring, error) {
	if g == nil || g.Data == nil || len(g.Data) != g.Spec.Voxels() {
		return nil, fmt.Errorf("grid: restore ring: snapshot grid missing or mis-sized")
	}
	if err := b.Alloc(g.Spec.Bytes()); err != nil {
		return nil, err
	}
	return &Ring{spec: g.Spec, Data: g.Data, budget: b}, nil
}

// Spec returns the current window sub-spec. Its OT grows with every
// Advance, so CenterT(T) always reports root-frame voxel centers.
func (r *Ring) Spec() Spec { return r.spec }

// Base returns the physical layer currently holding logical layer 0.
func (r *Ring) Base() int { return r.base }

// PhysOf returns the physical layer holding logical layer T, which must
// be in [0, Gt) — the modulo would silently alias anything else.
func (r *Ring) PhysOf(T int) int { return (r.base + T) % r.spec.Gt }

// At returns the accumulated value at window voxel (X, Y, T). Like
// Grid.At, out-of-range coordinates panic; T is checked explicitly
// because the ring's circular mapping would otherwise alias it into a
// different layer instead of failing.
func (r *Ring) At(X, Y, T int) float64 {
	if T < 0 || T >= r.spec.Gt {
		panic(fmt.Sprintf("grid: ring layer %d out of window [0,%d)", T, r.spec.Gt))
	}
	return r.Data[(X*r.spec.Gy+Y)*r.spec.Gt+r.PhysOf(T)]
}

// Advance slides the window forward by k voxel layers: the base rotates,
// the k freed (oldest) layers are zeroed and become the newest layers, and
// the spec's frame offset OT grows by k. Surviving layers are untouched.
// k >= Gt replaces the whole window (every layer is zeroed); k <= 0 is a
// no-op.
func (r *Ring) Advance(k int) {
	if k <= 0 {
		return
	}
	if k >= r.spec.Gt {
		zeroPar(r.Data, 1)
	} else {
		r.zeroPhysLayers(r.base, k)
	}
	r.Rotate(k)
}

// Rotate is Advance for a writer that overwrites every voxel of the freed
// layers itself — all Gt of them when k >= Gt — before the ring is read
// again: the base and the frame offset move and the sketch treats the
// freed layers as zeroed, but their data is left for the writer. It saves
// the zeroing pass over layers about to be overwritten anyway.
func (r *Ring) Rotate(k int) {
	if k <= 0 {
		return
	}
	gt := r.spec.Gt
	r.spec.OT += k
	if k >= gt {
		r.base = 0
		if r.sketch != nil {
			r.sketch.resetZeroed()
		}
		return
	}
	// The sketch rotates for free: its blocks live in physical
	// coordinates, so only the freed layers change (whole T-blocks become
	// exactly zero, boundary blocks go dirty). Updating before the base
	// moves keeps the physical layer range in one frame.
	if r.sketch != nil {
		r.sketch.zeroedPhysLayers(r.base, k)
	}
	r.base = (r.base + k) % gt
}

// zeroPhysLayers zeroes the k physical layers starting at p0 (mod Gt),
// splitting the wrap-around into at most two contiguous runs per row.
func (r *Ring) zeroPhysLayers(p0, k int) {
	gt := r.spec.Gt
	n1 := k
	if p0+n1 > gt {
		n1 = gt - p0
	}
	n2 := k - n1
	rows := r.spec.Gx * r.spec.Gy
	for row := 0; row < rows; row++ {
		off := row * gt
		clear(r.Data[off+p0 : off+p0+n1])
		if n2 > 0 {
			clear(r.Data[off : off+n2])
		}
	}
}

// TSegment is a physically contiguous run of a ring's logical layer range:
// logical layers [T0, T1] live at physical layers [Phys, Phys+T1-T0].
type TSegment struct {
	T0, T1 int // logical (window-frame) layers, inclusive
	Phys   int // physical layer of T0
}

// Segments splits the logical layer range [t0, t1] (inclusive, within
// [0, Gt-1]) into at most two physically contiguous runs. Writers stream
// each run with ordinary stride arithmetic; a run never wraps.
func (r *Ring) Segments(t0, t1 int) []TSegment {
	if t1 < t0 {
		return nil
	}
	p0 := r.PhysOf(t0)
	n := t1 - t0 + 1
	if n1 := r.spec.Gt - p0; n > n1 {
		return []TSegment{
			{T0: t0, T1: t0 + n1 - 1, Phys: p0},
			{T0: t0 + n1, T1: t1, Phys: 0},
		}
	}
	return []TSegment{{T0: t0, T1: t1, Phys: p0}}
}

// Zero resets every voxel of the window to zero (the compaction reset).
func (r *Ring) Zero() {
	zeroPar(r.Data, 1)
	if r.sketch != nil {
		r.sketch.resetZeroed()
	}
}

// Snapshot materializes the window as a plain Grid in logical layer order,
// charged to the given budget. A released ring reports an error instead
// of panicking — a reader can lose a release race by design (stream
// deletion vs. an in-flight snapshot).
func (r *Ring) Snapshot(b *Budget) (*Grid, error) {
	if r.Data == nil {
		return nil, fmt.Errorf("grid: ring has been released")
	}
	g, err := NewGrid(r.spec, b)
	if err != nil {
		return nil, err
	}
	gt := r.spec.Gt
	n1 := gt - r.base
	rows := r.spec.Gx * r.spec.Gy
	for row := 0; row < rows; row++ {
		src := r.Data[row*gt : (row+1)*gt]
		dst := g.Data[row*gt : (row+1)*gt]
		copy(dst[:n1], src[r.base:])
		copy(dst[n1:], src[:r.base])
	}
	return g, nil
}

// Release returns the ring's memory charge (and its sketch's, if one is
// attached) to its budget. The ring must not be used afterwards.
func (r *Ring) Release() {
	if r.budget != nil {
		r.budget.Free(r.spec.Bytes())
		r.budget = nil
	}
	if r.sketch != nil {
		r.sketch.release()
		r.sketch = nil
	}
	r.Data = nil
}
