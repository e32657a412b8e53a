package core

import (
	"math"

	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/simd"
)

// This file is the PB-family compute engine, the span engine: per X column
// the in-disk Y range is computed once (disk spans), the spatial and
// temporal invariants are stored packed, and the voxel update is a
// bounds-check-free multiply-add over contiguous rows. Kernels advertising
// the kernel.PolySpatial / kernel.PolyTemporal hook (the default
// Epanechnikov, plus quartic, triweight and uniform) are devirtualized: the
// fill loops are monomorphic and never dispatch through an interface, and
// on a host with vector kernels (simd.Enabled) long spans run through
// internal/simd. Other kernels dispatch through the interface over the same
// spans.
//
// Every path performs, per voxel, the float operations of the dense
// bandwidth-box scan in the same order, so the engine is bitwise identical
// to it for the same point order. The dense scan is the test oracle
// (dense_test.go) the property tests compare against.
//
// Block order. The PB-SYM strategies apply their points through
// applySymPoints, which tiles the point loop: it evaluates the disks and
// bars of up to symBlock consecutive (Morton-adjacent) points, then walks
// the block's X columns, and in each column applies every point whose box
// covers it, in point order. Only the order in which voxels are visited
// changes, not the order in which one voxel receives its points: a voxel
// lies in one X column, within a column the points run in order, and the
// blocks run in order. So the grid is bitwise the per-point loop's, and so
// the dense oracle's.

// ctx holds the evaluation context shared by every point-based algorithm:
// the problem spec, kernels, and the constants of the density formula. An
// estimate has one bandwidth, so the bandwidths, their reciprocals and the
// normalization are the same for every point; what differs per point is
// only its influence box, spec.InfluenceBox.
//
// A ctx also carries a signed contribution weight (see withWeight): the
// engine's apply functions are the per-point contribution primitive shared
// by all twelve strategies, and scaling their output by ±1 is what turns
// the batch estimator into the streaming Updater — a w=-1 application
// subtracts the bitwise-exact negation of what the w=+1 application added.
type ctx struct {
	spec grid.Spec
	sk   kernel.Spatial
	tk   kernel.Temporal
	n    int

	// weight is the signed contribution scale. The batch estimators use
	// +1; it is folded into norm, so the engine's inner loops are
	// weight-oblivious. applyPB, which deliberately re-derives its
	// normalization per evaluation (Table 3), multiplies it explicitly.
	weight float64

	// Bandwidth constants: hs, ht and their derived terms, and the
	// influence box's half-extents in voxels (spec.Hs, spec.Ht).
	hs, ht float64
	hs2    float64
	invHS  float64
	invHT  float64
	norm   float64 // weight/(n*hs^2*ht)
	boxHs  int
	boxHt  int

	// Kernel specialization: skFast/tkFast devirtualize the fill loops for
	// polynomial kernels c*(1-x)^deg, with coefficient skC/tkC and degree
	// skDeg/tkDeg.
	skFast bool
	tkFast bool
	skC    float64
	tkC    float64
	skDeg  int
	tkDeg  int
}

func newCtx(pts []grid.Point, spec grid.Spec, opt Options) ctx {
	n := len(pts)
	if opt.NormN > 0 {
		n = opt.NormN
	}
	c := ctx{
		spec:   spec,
		sk:     opt.Spatial,
		tk:     opt.Temporal,
		n:      n,
		weight: 1,
		hs:     spec.HS,
		ht:     spec.HT,
		hs2:    spec.HS * spec.HS,
		invHS:  1 / spec.HS,
		invHT:  1 / spec.HT,
		norm:   spec.NormFactor(n),
		boxHs:  spec.Hs,
		boxHt:  spec.Ht,
	}
	if kc, deg, ok := kernel.SpecializeSpatial(opt.Spatial); ok {
		c.skFast, c.skC, c.skDeg = true, kc, deg
	}
	if tc, deg, ok := kernel.SpecializeTemporal(opt.Temporal); ok {
		c.tkFast, c.tkC, c.tkDeg = true, tc, deg
	}
	return c
}

// withWeight returns a copy of the ctx whose contributions are scaled by w
// — the signed-weight contribution primitive. Both the folded norm and the
// explicit weight flip together, so every apply path (the span fills and
// PB's per-evaluation form) scales consistently. Scaling by ±1 is exact in
// floating point: w=-1 subtracts bitwise-identical contributions, which is
// what makes streaming retraction drift-bounded.
func (c ctx) withWeight(w float64) ctx {
	c.weight *= w
	c.norm *= w
	return c
}

// view is a writable window onto density storage: either the whole grid or
// a private replication buffer covering a sub-box. Flat index of voxel
// (X, Y, T) is (X-box.X0)*strideX + (Y-box.Y0)*strideY + (T-box.T0).
type view struct {
	data    []float64
	box     grid.Box
	strideX int
	strideY int
}

func gridView(g *grid.Grid) view {
	return view{
		data:    g.Data,
		box:     g.Spec.Bounds(),
		strideX: g.Spec.Gy * g.Spec.Gt,
		strideY: g.Spec.Gt,
	}
}

// boxView wraps a buffer covering box b (a REP replica buffer).
func boxView(data []float64, b grid.Box) view {
	_, ny, nt := b.Dims()
	return view{data: data, box: b, strideX: ny * nt, strideY: nt}
}

// row returns the mutable T-run [t0, t0+nt) of column (X, Y).
func (v *view) row(X, Y, t0, nt int) []float64 {
	base := (X-v.box.X0)*v.strideX + (Y-v.box.Y0)*v.strideY + (t0 - v.box.T0)
	return v.data[base : base+nt]
}

// base returns the flat index of voxel (X, Y, T) for incremental row
// arithmetic.
func (v *view) base(X, Y, T int) int {
	return (X-v.box.X0)*v.strideX + (Y-v.box.Y0)*v.strideY + (T - v.box.T0)
}

// scratch holds per-worker temporaries (the Ks disk and Kt bar of Algorithm
// 3, plus the per-column disk spans) and per-worker work counters, merged
// into Stats at the end of a run.
type scratch struct {
	disk []float64 // spatial invariant, packed by spans
	bar  []float64 // temporal invariant, packed from barLo
	tw   []float64 // normalized temporal offsets feeding the vector bar fill

	spanLo []int32 // per X column: first in-disk Y, relative to box.Y0
	spanN  []int32 // per X column: in-disk Y count
	barLo  int     // first in-support T, relative to box.T0
	barN   int     // in-support T count

	// Per-point Y-row caches: the dy-derived quantities are invariant
	// across X columns, so the span engine computes them once per point
	// instead of once per (X, Y) voxel. Values are exactly the dense
	// scan's per-voxel expressions.
	dy2 []float64 // (CenterY(Y)-p.Y)^2, the span predicate term
	nv  []float64 // (CenterY(Y)-p.Y)*invHS, the kernel's v argument
	nv2 []float64 // nv^2, the polynomial kernels' v^2 term

	updates    int64
	skEvals    int64
	tkEvals    int64
	spanProbes int64
}

// newScratch sizes a scratch for c's influence box, (2·Hs+1)² disk
// entries and 2·Ht+1 bar entries: no clipped box is larger, so ensure
// only reslices.
func newScratch(c *ctx) *scratch {
	dxy := 2*c.boxHs + 1
	dt := 2*c.boxHt + 1
	return &scratch{
		disk:   make([]float64, dxy*dxy),
		bar:    make([]float64, dt),
		tw:     make([]float64, dt),
		spanLo: make([]int32, dxy),
		spanN:  make([]int32, dxy),
		dy2:    make([]float64, dxy),
		nv:     make([]float64, dxy),
		nv2:    make([]float64, dxy),
	}
}

// ensure reslices sc's buffers to a box of nx×ny×nt voxels.
func (sc *scratch) ensure(nx, ny, nt int) {
	sc.disk = sc.disk[:nx*ny]
	sc.bar = sc.bar[:nt]
	sc.tw = sc.tw[:nt]
	sc.spanLo = sc.spanLo[:nx]
	sc.spanN = sc.spanN[:nx]
	sc.dy2 = sc.dy2[:ny]
	sc.nv = sc.nv[:ny]
	sc.nv2 = sc.nv2[:ny]
}

// fillDy2 computes the per-Y-row squared spatial offsets of the box, the
// only cache diskSpans needs (PB-BAR re-evaluates its kernel with fresh
// divisions, so it skips the normalized-offset caches entirely).
func fillDy2(c *ctx, p grid.Point, box grid.Box, sc *scratch) {
	ny := box.Y1 - box.Y0 + 1
	dy2 := sc.dy2[:ny]
	for iy := 0; iy < ny; iy++ {
		dy := c.spec.CenterY(box.Y0+iy) - p.Y
		dy2[iy] = dy * dy
	}
}

// fillYCaches computes the per-Y-row quantities of the box: dy^2 for the
// span predicate and the normalized offset (and its square) for the kernel
// fills. Each expression matches the dense scan's per-voxel computation,
// so downstream values stay bitwise identical.
func fillYCaches(c *ctx, p grid.Point, box grid.Box, sc *scratch) {
	ny := box.Y1 - box.Y0 + 1
	dy2, nv, nv2 := sc.dy2[:ny], sc.nv[:ny], sc.nv2[:ny]
	invHS := c.invHS
	for iy := 0; iy < ny; iy++ {
		dy := c.spec.CenterY(box.Y0+iy) - p.Y
		dy2[iy] = dy * dy
		v := dy * invHS
		nv[iy] = v
		nv2[iy] = v * v
	}
}

func (sc *scratch) mergeInto(st *Stats) {
	st.Updates += sc.updates
	st.SKEvals += sc.skEvals
	st.TKEvals += sc.tkEvals
	st.SpanProbes += sc.spanProbes
}

// applyFn is the per-point inner kernel shared by all PB-family algorithms:
// it adds point p's density contribution to every voxel of v that lies
// inside clip.
type applyFn func(v view, c *ctx, p grid.Point, clip grid.Box, sc *scratch)

// applyPB is Algorithm 2: both kernels are evaluated for every voxel of the
// bandwidth box that passes the distance tests. Like the paper's
// pseudocode, kernel arguments are computed with per-evaluation divisions
// ((x-xi)/hs); only PB-SYM replaces them with precomputed reciprocals.
// This cost difference is part of what Table 3 measures, so PB is never
// span-optimized.
func applyPB(v view, c *ctx, p grid.Point, clip grid.Box, sc *scratch) {
	box := c.spec.InfluenceBox(p).Clip(clip).Clip(v.box)
	if box.Empty() {
		return
	}
	nt := box.T1 - box.T0 + 1
	for X := box.X0; X <= box.X1; X++ {
		dx := c.spec.CenterX(X) - p.X
		dxx := dx * dx
		for Y := box.Y0; Y <= box.Y1; Y++ {
			dy := c.spec.CenterY(Y) - p.Y
			s2 := dxx + dy*dy
			row := v.row(X, Y, box.T0, nt)
			for j := 0; j < nt; j++ {
				dt := c.spec.CenterT(box.T0+j) - p.T
				if s2 < c.hs2 && dt >= -c.ht && dt <= c.ht {
					ks := c.sk.Eval(dx/c.hs, dy/c.hs)
					kt := c.tk.Eval(dt / c.ht)
					row[j] += c.weight * ks * kt / (float64(c.n) * c.hs * c.hs * c.ht)
					sc.skEvals++
					sc.tkEvals++
					sc.updates++
				}
			}
		}
	}
}

// applyDisk is PB-DISK: the spatial invariant Ks is computed once per point
// (the disk); the temporal kernel is still evaluated for every voxel.
func applyDisk(v view, c *ctx, p grid.Point, clip grid.Box, sc *scratch) {
	box := c.spec.InfluenceBox(p).Clip(clip).Clip(v.box)
	if box.Empty() {
		return
	}
	nx, ny, nt := box.Dims()
	sc.ensure(nx, ny, nt)
	fillDisk(c, p, box, sc)
	tLo, tHi := barBounds(c, p, box)
	if tHi < tLo {
		return
	}
	bn := tHi - tLo + 1
	base := v.base(box.X0, box.Y0, tLo)
	off := 0
	for ix := 0; ix < nx; ix++ {
		n := int(sc.spanN[ix])
		if n > 0 {
			rb := base + int(sc.spanLo[ix])*v.strideY
			ks := sc.disk[off : off+n]
			for iy := 0; iy < n; iy++ {
				row := v.data[rb : rb+bn]
				for j := range row {
					dt := c.spec.CenterT(tLo+j) - p.T
					row[j] += ks[iy] * c.tk.Eval(dt/c.ht)
				}
				rb += v.strideY
			}
			off += n
			sc.tkEvals += int64(n * bn)
			sc.updates += int64(n * bn)
		}
		base += v.strideX
	}
}

// applyBar is PB-BAR: the temporal invariant Kt is computed once per point
// (the bar); the spatial kernel is still evaluated for every voxel.
func applyBar(v view, c *ctx, p grid.Point, clip grid.Box, sc *scratch) {
	box := c.spec.InfluenceBox(p).Clip(clip).Clip(v.box)
	if box.Empty() {
		return
	}
	nx, ny, nt := box.Dims()
	sc.ensure(nx, ny, nt)
	fillDy2(c, p, box, sc)
	diskSpans(c, p, box, sc)
	fillBar(c, p, box, sc)
	if sc.barN == 0 {
		return
	}
	bar := sc.bar[:sc.barN]
	base := v.base(box.X0, box.Y0, box.T0+sc.barLo)
	for ix := 0; ix < nx; ix++ {
		n := int(sc.spanN[ix])
		if n > 0 {
			X := box.X0 + ix
			dx := c.spec.CenterX(X) - p.X
			lo := box.Y0 + int(sc.spanLo[ix])
			rb := base + int(sc.spanLo[ix])*v.strideY
			for iy := 0; iy < n; iy++ {
				dy := c.spec.CenterY(lo+iy) - p.Y
				row := v.data[rb : rb+len(bar)]
				for j, kt := range bar {
					if kt != 0 {
						row[j] += c.sk.Eval(dx/c.hs, dy/c.hs) * kt * c.norm
						sc.skEvals++
						sc.updates++
					}
				}
				rb += v.strideY
			}
		}
		base += v.strideX
	}
}

// fillSym evaluates point p's packed disk and bar over box (already
// clipped) into sc and reports whether the bar has any support.
func fillSym(c *ctx, p grid.Point, box grid.Box, sc *scratch) bool {
	nx, ny, nt := box.Dims()
	sc.ensure(nx, ny, nt)
	fillDisk(c, p, box, sc)
	fillBar(c, p, box, sc)
	return sc.barN > 0
}

// applySymBox is applySym after the clip: point p's cylinder over box.
func applySymBox(v *view, c *ctx, p grid.Point, box grid.Box, sc *scratch) {
	if !fillSym(c, p, box, sc) {
		return
	}
	bar := sc.bar[:sc.barN]
	base := v.base(box.X0, box.Y0, box.T0+sc.barLo)
	off := 0
	for ix := range sc.spanN {
		if n := int(sc.spanN[ix]); n > 0 {
			mulAddRows(v.data[base+int(sc.spanLo[ix])*v.strideY:], v.strideY, sc.disk[off:off+n], bar)
			off += n
			sc.updates += int64(n * len(bar))
		}
		base += v.strideX
	}
}

// mulAddRows is the PB-SYM block update of one disk span on T-innermost
// storage: row iy of data (rows stride apart) += ks[iy]·bar. One multiply
// and one add per voxel, in index order, vector kernels or not.
func mulAddRows(data []float64, stride int, ks, bar []float64) {
	if simd.Enabled() && len(ks)*len(bar) >= vectorBlockCutoff {
		simd.MulAddRows(data, stride, ks, bar)
		return
	}
	mulAddRowsScalar(data, stride, ks, bar)
}

// mulAddRowsScalar is mulAddRows without vector kernels: a 4-way unrolled
// row loop whose reslice pins len(row) == len(bar), so bounds checks
// vanish. Per element it is the dense scan's one multiply and one add.
func mulAddRowsScalar(data []float64, stride int, ks, bar []float64) {
	bn := len(bar)
	for iy, k := range ks {
		row := data[iy*stride:][:bn]
		j := 0
		for ; j+4 <= bn; j += 4 {
			row[j] += k * bar[j]
			row[j+1] += k * bar[j+1]
			row[j+2] += k * bar[j+2]
			row[j+3] += k * bar[j+3]
		}
		for ; j < bn; j++ {
			row[j] += k * bar[j]
		}
	}
}

// symBlock is the most points one PB-SYM block holds (see applySymPoints).
// A block's worth of Morton-adjacent cylinders keeps the union of one X
// column's rows in L1 while every slot writes it: 16 cylinders of the
// benchmark's batch-hb cube touch about 20 KB of one column. Measured on
// that cube (326×151×42, Hs 25, Ht 7, 50k clustered events, Morton-sorted)
// with one sequential PB-SYM pass, on a 2-vCPU AVX2 host (48 KiB L1d,
// 2 MiB L2 per core), median of 7 alternating passes, ms (the first row
// is the per-point applySym loop, no blocks):
//
//	per point   977
//	bs =  1     910
//	bs =  4     830
//	bs =  8     838
//	bs = 16     786
//	bs = 32     859
const symBlock = 16

// symBlockBytes caps the slot storage of one block. A slot holds a whole
// packed disk, so a wide bandwidth gets fewer slots (down to one, which is
// per-point application) rather than symBlock outsized disks.
const symBlockBytes = 1 << 20

// symSmallBox is the clipped-box voxel count below which a point bypasses
// the block and goes through applySymBox: a small cylinder's rows are few
// and already cache-resident, and the block's column walk costs more than
// its order saves. Measured with sequential PB-SYM on 200×200×100 grids of
// 15k clustered events (median of 7, ms, per point against blocks of 16):
// Hs 6 / Ht 4 (a 1521-voxel box) 24.5 against 28.6 and 22.6 against 26.9;
// Hs 8 / Ht 6 (3757) 46.7 against 45.2 and 40.9 against 32.6; Hs 10 / Ht 5
// (4851) 48.5 against 46.3 and 48.8 against 48.2.
const symSmallBox = 2048

// symSlot is one point of a PB-SYM block: its evaluated disk and bar, its
// clipped box, and the cursor of the column walk into its packed disk.
type symSlot struct {
	scratch
	box  grid.Box
	base int // flat index of (box.X0, box.Y0, box.T0+barLo)
	off  int // packed-disk offset of the next column the walk reaches
}

// symScratch is a worker's PB-SYM block scratch: up to len(slots) points
// evaluated but not yet applied, whose clipped boxes span the X columns
// [x0, x1].
type symScratch struct {
	slots  []symSlot
	n      int
	x0, x1 int
	blocks int64 // blocks applied, for tests
}

// newSymScratch allocates a block scratch of at most bs slots, fewer when
// bs of c's largest scratches would exceed symBlockBytes.
func newSymScratch(c *ctx, bs int) *symScratch {
	dxy := 2*c.boxHs + 1
	dt := 2*c.boxHt + 1
	slot := 8*(dxy*dxy+2*dt+3*dxy) + 2*4*dxy
	bs = max(1, min(bs, symBlockBytes/slot))
	b := &symScratch{slots: make([]symSlot, bs)}
	for i := range b.slots {
		b.slots[i].scratch = *newScratch(c)
	}
	return b
}

func (b *symScratch) mergeInto(st *Stats) {
	for i := range b.slots {
		b.slots[i].mergeInto(st)
	}
}

// applySymPoints applies PB-SYM for pts[idxs[k]], k in order (every point
// of pts in order when idxs is nil), clipped to clip, in blocks of
// consecutive points: each point's disk and bar are evaluated into a slot,
// and a full block is then applied one X column at a time, every slot
// whose box covers the column in point order. A block ends when it is full
// or the next point's box misses the block's X range; a point whose box is
// under symSmallBox voxels ends it too and is applied on its own.
//
// The grid is bitwise the per-point applySym loop's: a voxel lies in one X
// column, within a column the slots run in point order and blocks run in
// order, so every voxel receives the same products in the same order.
// Stats counts the same updates and kernel evaluations.
func applySymPoints(v view, c *ctx, pts []grid.Point, idxs []int32, clip grid.Box, b *symScratch) {
	n := len(pts)
	if idxs != nil {
		n = len(idxs)
	}
	for k := 0; k < n; k++ {
		p := pts[k]
		if idxs != nil {
			p = pts[idxs[k]]
		}
		box := c.spec.InfluenceBox(p).Clip(clip).Clip(v.box)
		if box.Empty() {
			continue
		}
		if box.Count() < symSmallBox {
			b.flush(&v)
			applySymBox(&v, c, p, box, &b.slots[0].scratch)
			continue
		}
		if b.n == len(b.slots) || (b.n > 0 && (box.X1 < b.x0 || box.X0 > b.x1)) {
			b.flush(&v)
		}
		s := &b.slots[b.n]
		if !fillSym(c, p, box, &s.scratch) {
			continue
		}
		s.box = box
		s.base = v.base(box.X0, box.Y0, box.T0+s.barLo)
		if b.n == 0 {
			b.x0, b.x1 = box.X0, box.X1
		} else {
			b.x0, b.x1 = min(b.x0, box.X0), max(b.x1, box.X1)
		}
		b.n++
	}
	b.flush(&v)
}

// flush applies the pending block column by column and empties it.
func (b *symScratch) flush(v *view) {
	if b.n == 0 {
		return
	}
	b.blocks++
	slots := b.slots[:b.n]
	for i := range slots {
		slots[i].off = 0
	}
	for X := b.x0; X <= b.x1; X++ {
		for i := range slots {
			s := &slots[i]
			if X < s.box.X0 || X > s.box.X1 {
				continue
			}
			ix := X - s.box.X0
			n := int(s.spanN[ix])
			if n == 0 {
				continue
			}
			bar := s.bar[:s.barN]
			rb := s.base + ix*v.strideX + int(s.spanLo[ix])*v.strideY
			mulAddRows(v.data[rb:], v.strideY, s.disk[s.off:s.off+n], bar)
			s.off += n
			s.updates += int64(n * len(bar))
		}
	}
	b.n = 0
}

// smallSpanCutoff is the extent below which barBounds refines directly
// from the box edges: for tiny boxes the float-to-int guesses cost more
// than the handful of exact predicate tests they save.
const smallSpanCutoff = 12

// vectorSpanCutoff is the packed-span length from which the vector fill
// kernels take over from the scalar fill loops. Below one 4-wide vector
// the kernel reduces to a single masked tail operation, which measured no
// better than the scalar loop; from one vector up it wins. Measured with
// BenchmarkFillDisk and sequential PB-SYM runs across the committed
// instances (bandwidths 1..13 voxels) on an AVX2 host.
const vectorSpanCutoff = 4

// vectorBlockCutoff is the rows*barLen element count from which routing a
// PB-SYM span block through simd.MulAddRows beats the unrolled scalar row
// walk. The vector kernel keeps bars of up to 16 elements resident in
// registers across rows, so its crossover is lower than per-row
// vectorization would allow. Measured with BenchmarkApplySym and the same
// sweep as vectorSpanCutoff.
const vectorBlockCutoff = 8

// diskSpans computes, for every X column of box, the contiguous range of Y
// rows whose voxel centers lie strictly inside the spatial bandwidth circle
// of p (the exact predicate dx^2+dy^2 < hs^2 of the dense scan), and
// returns the packed element total.
//
// It walks across X as the midpoint-circle algorithm does (Bresenham,
// CACM 1977), with no sqrt or float rounding of its own. The voxel centers
// are monotone in X and Y, so dy^2 falls to the seed row, the box row with
// the least dy^2, and rises after it, and a column's in-disk rows are an
// interval that holds the seed whenever it is not empty. While dx^2 falls
// from one column to the next the previous interval still passes, and the
// walk grows it; while dx^2 rises the interval can only shrink. Both test
// rows with the exact predicate, so each span is exactly the dense scan's
// set. A column with no span restarts the walk from the seed.
func diskSpans(c *ctx, p grid.Point, box grid.Box, sc *scratch) int {
	nx := box.X1 - box.X0 + 1
	ny := box.Y1 - box.Y0 + 1
	hs2 := c.hs2
	dy2 := sc.dy2[:ny] // filled by fillYCaches or fillDy2
	spanLo, spanN := sc.spanLo[:nx], sc.spanN[:nx]
	seed := 0
	for iy := 1; iy < ny && dy2[iy] <= dy2[seed]; iy++ {
		if dy2[iy] < dy2[seed] {
			seed = iy
		}
	}
	lo, hi := 0, -1 // the previous column's span, relative to box.Y0
	prev := 0.0     // the previous column's dx^2
	total, probes := 0, 0
	for ix := 0; ix < nx; ix++ {
		dx := c.spec.CenterX(box.X0+ix) - p.X
		dxx := dx * dx
		switch {
		case dxx >= hs2: // dy^2 >= 0, so no row passes
			lo, hi = 0, -1
		case lo > hi:
			probes++
			if dxx+dy2[seed] < hs2 {
				lo, hi, probes = growSpan(dxx, hs2, dy2, seed, seed, probes)
			}
		case dxx <= prev:
			lo, hi, probes = growSpan(dxx, hs2, dy2, lo, hi, probes)
		default:
			for lo <= hi {
				probes++
				if dxx+dy2[lo] < hs2 {
					break
				}
				lo++
			}
			for hi > lo {
				probes++
				if dxx+dy2[hi] < hs2 {
					break
				}
				hi--
			}
		}
		prev = dxx
		if lo > hi {
			spanLo[ix], spanN[ix] = 0, 0
			continue
		}
		spanLo[ix] = int32(lo)
		spanN[ix] = int32(hi - lo + 1)
		total += hi - lo + 1
	}
	sc.spanProbes += int64(probes)
	return total
}

// growSpan extends the in-disk rows [lo, hi] of dy2 outward while the
// next row passes dxx+dy2 < hs2, and adds the rows it tested to probes.
func growSpan(dxx, hs2 float64, dy2 []float64, lo, hi, probes int) (int, int, int) {
	for lo > 0 {
		probes++
		if dxx+dy2[lo-1] >= hs2 {
			break
		}
		lo--
	}
	for hi < len(dy2)-1 {
		probes++
		if dxx+dy2[hi+1] >= hs2 {
			break
		}
		hi++
	}
	return lo, hi, probes
}

// barBounds returns the inclusive T range of box whose voxel centers lie
// within the temporal bandwidth (the dense predicate -ht <= dt <= ht): a
// float guess with one layer of slack on each side, trimmed with the
// exact predicate.
func barBounds(c *ctx, p grid.Point, box grid.Box) (int, int) {
	lo, hi := box.T0, box.T1
	ht := c.ht
	if hi-lo+1 > smallSpanCutoff {
		invTRes := 1 / c.spec.TRes
		t0 := c.spec.Domain.T0
		ot := float64(c.spec.OT)
		lo = int(math.Floor((p.T-ht-t0)*invTRes-0.5-ot)) - 1
		hi = int(math.Ceil((p.T+ht-t0)*invTRes-0.5-ot)) + 1
		if lo < box.T0 {
			lo = box.T0
		}
		if hi > box.T1 {
			hi = box.T1
		}
	}
	for lo <= hi {
		dt := c.spec.CenterT(lo) - p.T
		if dt >= -ht && dt <= ht {
			break
		}
		lo++
	}
	for hi >= lo {
		dt := c.spec.CenterT(hi) - p.T
		if dt >= -ht && dt <= ht {
			break
		}
		hi--
	}
	return lo, hi
}

// fillDisk computes the spatial invariant Ks packed over the in-disk spans
// of the box, with the normalization constant folded in (as in Algorithm
// 3). Polynomial kernels take the monomorphic fast loops; everything else
// dispatches through the interface once per in-disk voxel.
func fillDisk(c *ctx, p grid.Point, box grid.Box, sc *scratch) {
	fillYCaches(c, p, box, sc)
	fillDiskCols(c, p, box, sc)
}

// fillDiskCols is fillDisk after the Y-row caches: the disk spans and the
// packed disk of box's columns, from the caches sc already holds for box's
// Y rows. A caller that applies one event in several X pieces fills the
// caches once and each piece's columns here.
func fillDiskCols(c *ctx, p grid.Point, box grid.Box, sc *scratch) {
	total := diskSpans(c, p, box, sc)
	sc.skEvals += int64(total)
	if c.skFast {
		fillDiskPoly(c, p, box, sc)
		return
	}
	nx := box.X1 - box.X0 + 1
	nv := sc.nv
	off := 0
	for ix := 0; ix < nx; ix++ {
		n := int(sc.spanN[ix])
		if n == 0 {
			continue
		}
		dx := c.spec.CenterX(box.X0+ix) - p.X
		u := dx * c.invHS
		lo := int(sc.spanLo[ix])
		dst := sc.disk[off : off+n]
		for iy := range dst {
			dst[iy] = c.sk.Eval(u, nv[lo+iy]) * c.norm
		}
		off += n
	}
}

// fillDiskPoly is the devirtualized fillDisk for kernels c*(1-r^2)^deg.
// Each arm reproduces the kernel's Eval expression (same operand order and
// associativity, same support branch), so the packed values are bitwise
// identical to interface dispatch.
func fillDiskPoly(c *ctx, p grid.Point, box grid.Box, sc *scratch) {
	nx := box.X1 - box.X0 + 1
	kc, invHS, norm := c.skC, c.invHS, c.norm
	nv2 := sc.nv2
	off := 0
	for ix := 0; ix < nx; ix++ {
		n := int(sc.spanN[ix])
		if n == 0 {
			continue
		}
		dx := c.spec.CenterX(box.X0+ix) - p.X
		u := dx * invHS
		uu := u * u
		w2 := nv2[sc.spanLo[ix]:][:n]
		dst := sc.disk[off : off+n]
		if simd.Enabled() && n >= vectorSpanCutoff {
			simd.FillDiskPoly(dst, w2, uu, kc, norm, c.skDeg)
			off += n
			continue
		}
		switch c.skDeg {
		case 0:
			kn := kc * norm
			for iy := range dst {
				if r2 := uu + w2[iy]; r2 >= 1 {
					dst[iy] = 0
				} else {
					dst[iy] = kn
				}
			}
		case 1:
			for iy := range dst {
				if r2 := uu + w2[iy]; r2 >= 1 {
					dst[iy] = 0
				} else {
					dst[iy] = kc * (1 - r2) * norm
				}
			}
		case 2:
			for iy := range dst {
				if r2 := uu + w2[iy]; r2 >= 1 {
					dst[iy] = 0
				} else {
					d := 1 - r2
					dst[iy] = kc * d * d * norm
				}
			}
		default:
			for iy := range dst {
				if r2 := uu + w2[iy]; r2 >= 1 {
					dst[iy] = 0
				} else {
					d := 1 - r2
					dst[iy] = kc * d * d * d * norm
				}
			}
		}
		off += n
	}
}

// fillBar computes the temporal invariant Kt packed over the in-support T
// range of the box (sc.barLo/sc.barN), devirtualized for polynomial
// kernels.
func fillBar(c *ctx, p grid.Point, box grid.Box, sc *scratch) {
	lo, hi := barBounds(c, p, box)
	if hi < lo {
		sc.barLo, sc.barN = 0, 0
		return
	}
	sc.barLo = lo - box.T0
	sc.barN = hi - lo + 1
	bar := sc.bar[:sc.barN]
	sc.tkEvals += int64(sc.barN)
	if !c.tkFast {
		for j := range bar {
			dt := c.spec.CenterT(lo+j) - p.T
			bar[j] = c.tk.Eval(dt * c.invHT)
		}
		return
	}
	kc, invHT := c.tkC, c.invHT
	if simd.Enabled() && sc.barN >= vectorSpanCutoff {
		// Pack the normalized offsets (the w of the scalar loops below),
		// then evaluate the polynomial 4 lanes at a time. For the finite w
		// the engine produces, the kernel's w*w >= 1 support predicate
		// selects exactly the scalar branch's w <= -1 || w >= 1 elements.
		tw := sc.tw[:sc.barN]
		for j := range tw {
			tw[j] = (c.spec.CenterT(lo+j) - p.T) * invHT
		}
		simd.FillBarPoly(bar, tw, kc, c.tkDeg)
		return
	}
	switch c.tkDeg {
	case 0:
		for j := range bar {
			dt := c.spec.CenterT(lo+j) - p.T
			w := dt * invHT
			if w <= -1 || w >= 1 {
				bar[j] = 0
			} else {
				bar[j] = kc
			}
		}
	case 1:
		for j := range bar {
			dt := c.spec.CenterT(lo+j) - p.T
			w := dt * invHT
			if w <= -1 || w >= 1 {
				bar[j] = 0
			} else {
				bar[j] = kc * (1 - w*w)
			}
		}
	case 2:
		for j := range bar {
			dt := c.spec.CenterT(lo+j) - p.T
			w := dt * invHT
			if w <= -1 || w >= 1 {
				bar[j] = 0
			} else {
				d := 1 - w*w
				bar[j] = kc * d * d
			}
		}
	default:
		for j := range bar {
			dt := c.spec.CenterT(lo+j) - p.T
			w := dt * invHT
			if w <= -1 || w >= 1 {
				bar[j] = 0
			} else {
				d := 1 - w*w
				bar[j] = kc * d * d * d
			}
		}
	}
}
