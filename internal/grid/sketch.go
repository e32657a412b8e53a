package grid

import "math"

// inf seeds the maximum upper bounds of never-built sketch blocks.
var inf = math.Inf(1)

// sketchShift is the log2 block edge of the ring sketch: 4x4x4 voxels,
// finer than the Pyramid's 8x8x8. The ring sketch's rebuild cost is driven
// by per-event dirty AABBs (a bandwidth box), and the smaller blocks pad
// that box far less — at the price of an 8x-larger (still ~2% of the ring)
// block table the Pyramid's bulk build never has to worry about.
const (
	sketchShift = 2
	sketchEdge  = 1 << sketchShift
)

// sketchBlocksFor returns the number of sketch blocks covering n voxels.
func sketchBlocksFor(n int) int { return (n + sketchEdge - 1) >> sketchShift }

// RingSketch is the incremental analytics sketch of a live window ring: the
// streaming counterpart of Pyramid. Instead of snapshotting the O(G) window
// to answer region and hotspot queries, the sketch keeps per-4x4x4-block
// sums and maxima over the ring's *physical* layout — all Gt+Ht layers,
// hidden ones included — and repairs them lazily:
//
//   - writers mark the axis-aligned bandwidth box of every applied event
//     dirty (MarkDirty, called by core.Updater's apply path), hidden
//     layers included, so each block's maximum bound grows by the peaks of
//     the events that wrote it, whichever side of the window's end;
//   - Ring.Advance rotates the sketch for free — blocks live in physical
//     coordinates, so the O(1) base rotation moves no sketch data; freed
//     layers either zero whole blocks in place or mark boundary blocks
//     dirty;
//   - queries rebuild only the dirty blocks they are about to trust
//     (refresh), then answer from block sums (BoxSum: blocks wholly inside
//     the box summed, boundary blocks scanned) and block maxima (TopK:
//     best-first block scan with the same floor pruning as Pyramid.TopK).
//
// A block that straddles the window's end or start holds visible and
// hidden voxels: its sum is never trusted (no visible box contains it
// whole) and its maximum is still an upper bound on its visible voxels.
// TopK skips hidden voxels and never rebuilds a wholly hidden block.
//
// The sketch stores raw (unnormalized) ring values; TopK takes the
// normalization scale so its candidate densities are bitwise identical to
// a normalized Snapshot's voxels, which makes the selection — including
// index tie-breaks — exactly the sequential scan's.
//
// RingSketch is not self-synchronizing: callers must hold whatever lock
// orders mutations of the ring (core.Updater holds its own mutex across
// both the apply path and the query methods).
type RingSketch struct {
	r          *Ring
	bx, by, bt int

	sum, max []float64 // per block over physical voxels, T-block innermost
	// ub is an upper bound on each block's maximum, kept sound without a
	// rebuild: a signed apply can raise a block's maximum by at most the
	// event's peak voxel contribution (MarkDirty accumulates it), while
	// retractions and advance-zeroing only lower maxima (no bump needed).
	// Clean blocks have ub == max; TopK orders blocks by ub and rebuilds a
	// dirty block only when its bound actually reaches the selection floor,
	// so wide-bandwidth events do not force a full-window repair per query.
	ub    []float64
	dirty []bool

	heapScratch []int32 // reused backing array for TopK's block heap

	rebuilt int64 // total block rebuilds (the work counter serving meters)

	budget *Budget
}

// RingSketchBytes returns the memory footprint of a ring sketch for the
// spec: three float64 tables plus the dirty map over all Gt+Ht layers,
// ~2% of the ring itself.
func RingSketchBytes(s Spec) int64 {
	nb := int64(sketchBlocksFor(s.Gx)) * int64(sketchBlocksFor(s.Gy)) * int64(sketchBlocksFor(s.Gt+s.Ht))
	return nb * (3*8 + 1)
}

// EnableSketch attaches (building lazily) the ring's analytics sketch,
// charging the budget if one is provided. It is idempotent: an already
// attached sketch is returned unchanged. Every block starts dirty, so the
// first query pays one full O(G) rebuild and later queries pay only for
// the blocks mutations have touched since.
func (r *Ring) EnableSketch(b *Budget) (*RingSketch, error) {
	if r.sketch != nil {
		return r.sketch, nil
	}
	if err := b.Alloc(RingSketchBytes(r.spec)); err != nil {
		return nil, err
	}
	sk := &RingSketch{
		r:  r,
		bx: sketchBlocksFor(r.spec.Gx), by: sketchBlocksFor(r.spec.Gy), bt: sketchBlocksFor(r.layers),
		budget: b,
	}
	nb := sk.bx * sk.by * sk.bt
	sk.sum = make([]float64, nb)
	sk.max = make([]float64, nb)
	sk.ub = make([]float64, nb)
	sk.dirty = make([]bool, nb)
	sk.markAll()
	r.sketch = sk
	return sk, nil
}

// Sketch returns the attached analytics sketch, or nil.
func (r *Ring) Sketch() *RingSketch { return r.sketch }

// MarkDirty invalidates the sketch blocks covering the logical voxel box a
// writer is about to touch (a no-op without a sketch). peak is an upper
// bound on how much the write can raise any single voxel — the event's
// peak kernel contribution for an addition, 0 for a retraction (which only
// lowers values); it keeps the blocks' maximum upper bounds sound without
// rebuilding them. The box's logical T range may reach into the hidden
// layers; the box is clipped to the ring and split at its wrap point.
func (r *Ring) MarkDirty(b Box, peak float64) {
	sk := r.sketch
	if sk == nil {
		return
	}
	b = b.Clip(Box{0, r.spec.Gx - 1, 0, r.spec.Gy - 1, 0, r.layers - 1})
	if b.Empty() {
		return
	}
	if peak < 0 {
		peak = 0
	}
	for _, seg := range r.Segments(b.T0, b.T1) {
		sk.markPhys(b.X0, b.X1, b.Y0, b.Y1, seg.Phys, seg.Phys+seg.T1-seg.T0, peak)
	}
}

// markPhys marks the blocks covering physical voxel ranges dirty, bumping
// their maximum upper bounds by peak.
func (sk *RingSketch) markPhys(x0, x1, y0, y1, p0, p1 int, peak float64) {
	for bX := x0 >> sketchShift; bX <= x1>>sketchShift; bX++ {
		for bY := y0 >> sketchShift; bY <= y1>>sketchShift; bY++ {
			base := (bX*sk.by + bY) * sk.bt
			for bT := p0 >> sketchShift; bT <= p1>>sketchShift; bT++ {
				sk.dirty[base+bT] = true
				sk.ub[base+bT] += peak
			}
		}
	}
}

// markAll marks every block dirty with an unbounded maximum.
func (sk *RingSketch) markAll() {
	for i := range sk.dirty {
		sk.dirty[i] = true
		sk.ub[i] = inf
	}
}

// resetZeroed records that the entire ring has been zeroed (whole-window
// advance or compaction): every block's aggregates are exactly zero, so
// nothing is dirty.
func (sk *RingSketch) resetZeroed() {
	clear(sk.sum)
	clear(sk.max)
	clear(sk.ub)
	clear(sk.dirty)
}

// zeroedPhysLayers records that physical layers [p0, p0+k) (mod Gt) have
// been zeroed across the whole X-Y extent: T-blocks fully inside the range
// become exactly zero in place, boundary T-blocks are marked dirty.
func (sk *RingSketch) zeroedPhysLayers(p0, k int) {
	n1 := min(k, sk.r.layers-p0)
	sk.zeroedPhysRun(p0, p0+n1-1)
	if n2 := k - n1; n2 > 0 {
		sk.zeroedPhysRun(0, n2-1)
	}
}

// zeroedPhysRun handles one contiguous zeroed physical layer run [p0, p1].
func (sk *RingSketch) zeroedPhysRun(p0, p1 int) {
	for bT := p0 >> sketchShift; bT <= p1>>sketchShift; bT++ {
		blkLo := bT << sketchShift
		blkHi := min((bT+1)<<sketchShift, sk.r.layers) - 1
		if p0 <= blkLo && blkHi <= p1 {
			// The whole T-block is zero for every spatial block column.
			for bc := 0; bc < sk.bx*sk.by; bc++ {
				i := bc*sk.bt + bT
				sk.sum[i], sk.max[i], sk.ub[i] = 0, 0, 0
				sk.dirty[i] = false
			}
			continue
		}
		// Boundary blocks go dirty; zeroing only lowers values, so their
		// maximum upper bounds stay sound unchanged.
		for bc := 0; bc < sk.bx*sk.by; bc++ {
			sk.dirty[bc*sk.bt+bT] = true
		}
	}
}

// release frees the sketch's budget charge (called by Ring.Release).
func (sk *RingSketch) release() {
	if sk.budget != nil {
		sk.budget.Free(RingSketchBytes(sk.r.spec))
		sk.budget = nil
	}
	sk.sum, sk.max, sk.ub, sk.dirty = nil, nil, nil, nil
}

// Rebuilt returns the cumulative number of block rebuilds refresh has
// performed (the serving tier's sketch_rebuilds meter).
func (sk *RingSketch) Rebuilt() int64 { return sk.rebuilt }

// rebuildBlock recomputes one dirty block's aggregates from the ring.
func (sk *RingSketch) rebuildBlock(b int) {
	s, L := sk.r.spec, sk.r.layers
	bT := b % sk.bt
	bY := (b / sk.bt) % sk.by
	bX := b / (sk.bt * sk.by)
	t0, t1 := bT<<sketchShift, min((bT+1)<<sketchShift, L)
	sum, mx := 0.0, 0.0
	first := true
	for X := bX << sketchShift; X < min((bX+1)<<sketchShift, s.Gx); X++ {
		for Y := bY << sketchShift; Y < min((bY+1)<<sketchShift, s.Gy); Y++ {
			row := sk.r.Data[(X*s.Gy+Y)*L+t0 : (X*s.Gy+Y)*L+t1]
			for _, v := range row {
				sum += v
				if first || v > mx {
					mx, first = v, false
				}
			}
		}
	}
	sk.sum[b], sk.max[b], sk.ub[b] = sum, mx, mx
	sk.dirty[b] = false
	sk.rebuilt++
}

// BoxSum returns the raw (unnormalized) sum of the visible window voxels
// in the logical box: full blocks contribute their cached sums, boundary blocks
// are scanned voxel by voxel — O(box/sketchEdge³ + boundary) instead of
// O(box). Repair is demand-driven: only dirty blocks whose cached sum the
// query actually trusts are rebuilt (boundary blocks read raw voxels and
// need no repair; dirt outside the box is left for the query that reaches
// it).
func (sk *RingSketch) BoxSum(b Box) float64 {
	b = b.Clip(sk.r.spec.Bounds())
	if b.Empty() {
		return 0
	}
	total := 0.0
	for _, seg := range sk.r.Segments(b.T0, b.T1) {
		total += sk.physBoxSum(b.X0, b.X1, b.Y0, b.Y1, seg.Phys, seg.Phys+seg.T1-seg.T0)
	}
	return total
}

// physBoxSum sums the physical voxel box [x0,x1]x[y0,y1]x[p0,p1]; a
// block's cached sum is trusted only when the block lies wholly inside.
func (sk *RingSketch) physBoxSum(x0, x1, y0, y1, p0, p1 int) float64 {
	gy, L := sk.r.spec.Gy, sk.r.layers
	total := 0.0
	for bX := x0 >> sketchShift; bX <= x1>>sketchShift; bX++ {
		fullX := bX<<sketchShift >= x0 && (bX+1)<<sketchShift-1 <= x1
		for bY := y0 >> sketchShift; bY <= y1>>sketchShift; bY++ {
			fullY := bY<<sketchShift >= y0 && (bY+1)<<sketchShift-1 <= y1
			blockRow := (bX*sk.by + bY) * sk.bt
			for bT := p0 >> sketchShift; bT <= p1>>sketchShift; bT++ {
				fullT := bT<<sketchShift >= p0 && (bT+1)<<sketchShift-1 <= p1
				if fullX && fullY && fullT {
					bi := blockRow + bT
					if sk.dirty[bi] {
						sk.rebuildBlock(bi)
					}
					total += sk.sum[bi]
					continue
				}
				// Boundary block: scan the intersection voxels.
				cx0, cx1 := max(x0, bX<<sketchShift), min(x1, (bX+1)<<sketchShift-1)
				cy0, cy1 := max(y0, bY<<sketchShift), min(y1, (bY+1)<<sketchShift-1)
				ct0, ct1 := max(p0, bT<<sketchShift), min(p1, (bT+1)<<sketchShift-1)
				for X := cx0; X <= cx1; X++ {
					for Y := cy0; Y <= cy1; Y++ {
						row := sk.r.Data[(X*gy+Y)*L+ct0 : (X*gy+Y)*L+ct1+1]
						for _, v := range row {
							total += v
						}
					}
				}
			}
		}
	}
	return total
}

// TopK returns the k highest-density voxels of the visible window in
// logical coordinates, each raw value multiplied by scale (the owner's 1/n
// normalization) exactly as Snapshot normalizes, in descending density
// order with ties broken by ascending logical flat index — the same
// selection a sequential scan of the normalized snapshot makes. Blocks are
// visited best-bound-first: a dirty block is rebuilt only when its maximum
// upper bound reaches the selection floor (then re-queued with its exact
// maximum), so repair work tracks the hot blocks, not the event dirt.
func (sk *RingSketch) TopK(k int, scale float64) []VoxelDensity {
	s := sk.r.spec
	if k <= 0 {
		return nil
	}
	k = min(k, s.Voxels())
	// Raw bounds order candidates correctly for any scale > 0: rounding a
	// shared multiplication is monotone, so raw a <= b implies a*scale <=
	// b*scale after rounding.
	var bh blockHeap
	bh.init(sk.heapScratch, len(sk.ub), sk.ub)
	sk.heapScratch = bh.idx[:0]
	h := newTopKSelector(k)
	gt, L, base := s.Gt, sk.r.layers, sk.r.base
	for {
		bi, ok := bh.pop()
		if !ok {
			break
		}
		if h.full() && sk.ub[bi]*scale < h.floor().v {
			break
		}
		b := int(bi)
		bT := b % sk.bt
		t0, t1 := bT<<sketchShift, min((bT+1)<<sketchShift, L)
		if lo, hi := (t0-base+L)%L, (t1-1-base+L)%L; lo >= gt && hi >= lo {
			continue // every layer of the block is hidden: no rebuild, no scan
		}
		if sk.dirty[bi] {
			// The optimistic bound reaches the floor: pay for the exact
			// maximum and re-queue (everything still on the heap has a
			// lower bound, so ordering stays best-first).
			sk.rebuildBlock(b)
			bh.push(bi)
			continue
		}
		bY := (b / sk.bt) % sk.by
		bX := b / (sk.bt * sk.by)
		for X := bX << sketchShift; X < min((bX+1)<<sketchShift, s.Gx); X++ {
			for Y := bY << sketchShift; Y < min((bY+1)<<sketchShift, s.Gy); Y++ {
				row := X*s.Gy + Y
				for p := t0; p < t1; p++ {
					logT := p - base
					if logT < 0 {
						logT += L
					}
					if logT >= gt {
						continue // a hidden layer
					}
					v := sk.r.Data[row*L+p] * scale
					if h.full() && v < h.floor().v {
						continue
					}
					h.offer(row*gt+logT, v)
				}
			}
		}
	}
	return h.drain(gt, s.Gy)
}

// blockHeap pops block indices in (maximum descending, index ascending)
// order — the deterministic best-first traversal RingSketch.TopK prunes.
// A live window's bounds change between reads, so each read heapifies
// afresh (a linear pass) and only the blocks it visits pay the log-cost
// pops: O(visited·log blocks) instead of sorting every block per read. A
// static Pyramid sorts its blocks in this order once, at build.
type blockHeap struct {
	idx  []int32
	maxv []float64
}

// init fills the heap with blocks [0, n) over the given maxima, reusing
// the provided scratch slice when it is large enough.
func (h *blockHeap) init(scratch []int32, n int, maxv []float64) {
	if cap(scratch) < n {
		scratch = make([]int32, n)
	}
	h.idx = scratch[:n]
	h.maxv = maxv
	for i := range h.idx {
		h.idx[i] = int32(i)
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// before reports whether block a pops before block b.
func (h *blockHeap) before(a, b int32) bool {
	if h.maxv[a] != h.maxv[b] {
		return h.maxv[a] > h.maxv[b]
	}
	return a < b
}

func (h *blockHeap) siftDown(i int) {
	n := len(h.idx)
	for {
		best := i
		if l := 2*i + 1; l < n && h.before(h.idx[l], h.idx[best]) {
			best = l
		}
		if r := 2*i + 2; r < n && h.before(h.idx[r], h.idx[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.idx[i], h.idx[best] = h.idx[best], h.idx[i]
		i = best
	}
}

// pop removes and returns the best remaining block.
func (h *blockHeap) pop() (int32, bool) {
	if len(h.idx) == 0 {
		return 0, false
	}
	top := h.idx[0]
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	h.siftDown(0)
	return top, true
}

// push re-queues a block (whose ordering value may have changed since it
// was popped — RingSketch.TopK tightens a dirty block's bound to its exact
// maximum before re-queueing).
func (h *blockHeap) push(b int32) {
	h.idx = append(h.idx, b)
	i := len(h.idx) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(h.idx[i], h.idx[p]) {
			return
		}
		h.idx[i], h.idx[p] = h.idx[p], h.idx[i]
		i = p
	}
}
