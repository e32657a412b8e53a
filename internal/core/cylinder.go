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

// ctx holds the evaluation context shared by every point-based algorithm:
// the problem spec, kernels, and the constants of the density formula.
//
// A ctx also carries a signed contribution weight (see withWeight): the
// engine's apply functions are the per-point contribution primitive shared
// by all twelve strategies, and scaling their output by ±1 is what turns
// the batch estimator into the streaming Accumulator and Updater — a w=-1
// application subtracts the bitwise-exact negation of what the w=+1
// application added.
type ctx struct {
	spec     grid.Spec
	sk       kernel.Spatial
	tk       kernel.Temporal
	n        int
	adaptive func(grid.Point) float64

	// weight is the signed contribution scale. The batch estimators use
	// +1; it is folded into norm (and geom.norm), so the engine's inner
	// loops are weight-oblivious. applyPB, which deliberately re-derives
	// its normalization per evaluation (Table 3), multiplies it explicitly.
	weight float64

	// Uniform-bandwidth fast-path constants.
	hs, ht     float64
	hs2        float64
	invHS      float64
	invHT      float64
	norm       float64
	boxHs      int
	boxHt      int
	maxScale   float64
	adaptiveOn bool

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

// geom is the per-point evaluation geometry. With uniform bandwidths it is
// the same for every point; with adaptive bandwidths it is derived from the
// point's scale factor.
type geom struct {
	hs, ht float64
	hs2    float64
	invHS  float64
	invHT  float64
	norm   float64 // 1/(n*hs^2*ht) for this point
	box    grid.Box
}

func newCtx(pts []grid.Point, spec grid.Spec, opt Options) ctx {
	n := len(pts)
	if opt.NormN > 0 {
		n = opt.NormN
	}
	c := ctx{
		spec:     spec,
		sk:       opt.Spatial,
		tk:       opt.Temporal,
		n:        n,
		adaptive: opt.AdaptiveBandwidth,
		weight:   1,
		hs:       spec.HS,
		ht:       spec.HT,
		hs2:      spec.HS * spec.HS,
		invHS:    1 / spec.HS,
		invHT:    1 / spec.HT,
		norm:     spec.NormFactor(n),
		boxHs:    spec.Hs,
		boxHt:    spec.Ht,
		maxScale: 1,
	}
	if kc, deg, ok := kernel.SpecializeSpatial(opt.Spatial); ok {
		c.skFast, c.skC, c.skDeg = true, kc, deg
	}
	if tc, deg, ok := kernel.SpecializeTemporal(opt.Temporal); ok {
		c.tkFast, c.tkC, c.tkDeg = true, tc, deg
	}
	if c.adaptive != nil {
		c.adaptiveOn = true
		for _, p := range pts {
			if s := c.adaptive(p); s > c.maxScale {
				c.maxScale = s
			}
		}
	}
	return c
}

// withWeight returns a copy of the ctx whose contributions are scaled by w
// — the signed-weight contribution primitive. Both the folded norm and the
// explicit weight flip together, so every apply path (the span fills, PB's
// per-evaluation form, adaptive geometry) scales consistently. Scaling by
// ±1 is exact in floating point: w=-1 subtracts bitwise-identical
// contributions, which is what makes streaming retraction drift-bounded.
func (c ctx) withWeight(w float64) ctx {
	c.weight *= w
	c.norm *= w
	return c
}

// maxHsVoxels returns the largest spatial bandwidth in voxels across all
// points (equal to spec.Hs unless adaptive bandwidths are enabled).
func (c *ctx) maxHsVoxels() int {
	if !c.adaptiveOn {
		return c.boxHs
	}
	return int(math.Ceil(c.hs * c.maxScale / c.spec.SRes))
}

// maxHtVoxels is the temporal analogue of maxHsVoxels.
func (c *ctx) maxHtVoxels() int {
	if !c.adaptiveOn {
		return c.boxHt
	}
	return int(math.Ceil(c.ht * c.maxScale / c.spec.TRes))
}

// geom returns the evaluation geometry for point p: bandwidths, the
// normalization constant and the (unclipped-to-clip, but grid-clipped)
// influence box.
func (c *ctx) geom(p grid.Point) geom {
	if !c.adaptiveOn {
		return geom{
			hs: c.hs, ht: c.ht, hs2: c.hs2,
			invHS: c.invHS, invHT: c.invHT, norm: c.norm,
			box: c.spec.InfluenceBox(p),
		}
	}
	s := c.adaptive(p)
	if s <= 0 || math.IsNaN(s) {
		s = 1
	}
	hs := c.hs * s
	ht := c.ht * s
	X, Y, T := c.spec.VoxelOf(p)
	bhs := int(math.Ceil(hs / c.spec.SRes))
	bht := int(math.Ceil(ht / c.spec.TRes))
	b := grid.Box{
		X0: X - bhs, X1: X + bhs,
		Y0: Y - bhs, Y1: Y + bhs,
		T0: T - bht, T1: T + bht,
	}
	return geom{
		hs: hs, ht: ht, hs2: hs * hs,
		invHS: 1 / hs, invHT: 1 / ht,
		norm: c.weight / (float64(c.n) * hs * hs * ht),
		box:  b.Clip(c.spec.Bounds()),
	}
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

// dataView wraps a raw full-grid slice (a DR replica) as a view.
func dataView(data []float64, spec grid.Spec) view {
	return view{
		data:    data,
		box:     spec.Bounds(),
		strideX: spec.Gy * spec.Gt,
		strideY: spec.Gt,
	}
}

// boxView wraps a buffer covering box b (a REP replica buffer).
func boxView(data []float64, b grid.Box) view {
	_, ny, nt := b.Dims()
	return view{data: data, box: b, strideX: ny * nt, strideY: nt}
}

// row returns the mutable T-run [t0, t0+nt) of column (X, Y).
func (v view) row(X, Y, t0, nt int) []float64 {
	base := (X-v.box.X0)*v.strideX + (Y-v.box.Y0)*v.strideY + (t0 - v.box.T0)
	return v.data[base : base+nt]
}

// base returns the flat index of voxel (X, Y, T) for incremental row
// arithmetic.
func (v view) base(X, Y, T int) int {
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

	updates int64
	skEvals int64
	tkEvals int64
}

// roundUp8 rounds n up to the next multiple of 8, the float64 count of a
// 64-byte cache line (and two 4-wide vector registers). Scratch rows are
// allocated at rounded capacity so adaptive-bandwidth runs, whose per-point
// box sizes wobble by a voxel or two, reuse one allocation across points
// instead of reallocating on every size change.
func roundUp8(n int) int { return (n + 7) &^ 7 }

func newScratch(c *ctx) *scratch {
	dxy := 2*c.maxHsVoxels() + 1
	dt := 2*c.maxHtVoxels() + 1
	return &scratch{
		disk:   make([]float64, roundUp8(dxy*dxy))[:dxy*dxy],
		bar:    make([]float64, roundUp8(dt))[:dt],
		tw:     make([]float64, roundUp8(dt))[:dt],
		spanLo: make([]int32, roundUp8(dxy))[:dxy],
		spanN:  make([]int32, roundUp8(dxy))[:dxy],
		dy2:    make([]float64, roundUp8(dxy))[:dxy],
		nv:     make([]float64, roundUp8(dxy))[:dxy],
		nv2:    make([]float64, roundUp8(dxy))[:dxy],
	}
}

func (sc *scratch) ensure(nx, ny, nt int) {
	nxy := nx * ny
	if cap(sc.disk) < nxy {
		sc.disk = make([]float64, roundUp8(nxy))
	}
	sc.disk = sc.disk[:nxy]
	if cap(sc.bar) < nt {
		sc.bar = make([]float64, roundUp8(nt))
		sc.tw = make([]float64, roundUp8(nt))
	}
	sc.bar = sc.bar[:nt]
	sc.tw = sc.tw[:nt]
	if cap(sc.spanLo) < nx {
		sc.spanLo = make([]int32, roundUp8(nx))
		sc.spanN = make([]int32, roundUp8(nx))
	}
	sc.spanLo = sc.spanLo[:nx]
	sc.spanN = sc.spanN[:nx]
	if cap(sc.dy2) < ny {
		sc.dy2 = make([]float64, roundUp8(ny))
		sc.nv = make([]float64, roundUp8(ny))
		sc.nv2 = make([]float64, roundUp8(ny))
	}
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
func fillYCaches(c *ctx, p grid.Point, g geom, box grid.Box, sc *scratch) {
	ny := box.Y1 - box.Y0 + 1
	dy2, nv, nv2 := sc.dy2[:ny], sc.nv[:ny], sc.nv2[:ny]
	for iy := 0; iy < ny; iy++ {
		dy := c.spec.CenterY(box.Y0+iy) - p.Y
		dy2[iy] = dy * dy
		v := dy * g.invHS
		nv[iy] = v
		nv2[iy] = v * v
	}
}

func (sc *scratch) mergeInto(st *Stats) {
	st.Updates += sc.updates
	st.SKEvals += sc.skEvals
	st.TKEvals += sc.tkEvals
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
	g := c.geom(p)
	box := g.box.Clip(clip).Clip(v.box)
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
				if s2 < g.hs2 && dt >= -g.ht && dt <= g.ht {
					ks := c.sk.Eval(dx/g.hs, dy/g.hs)
					kt := c.tk.Eval(dt / g.ht)
					row[j] += c.weight * ks * kt / (float64(c.n) * g.hs * g.hs * g.ht)
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
	g := c.geom(p)
	box := g.box.Clip(clip).Clip(v.box)
	if box.Empty() {
		return
	}
	nx, ny, nt := box.Dims()
	sc.ensure(nx, ny, nt)
	fillDisk(c, p, g, box, sc)
	tLo, tHi := barBounds(c, p, g, box)
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
					row[j] += ks[iy] * c.tk.Eval(dt/g.ht)
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
	g := c.geom(p)
	box := g.box.Clip(clip).Clip(v.box)
	if box.Empty() {
		return
	}
	nx, ny, nt := box.Dims()
	sc.ensure(nx, ny, nt)
	fillDy2(c, p, box, sc)
	diskSpans(c, p, g, box, sc)
	fillBar(c, p, g, box, sc)
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
						row[j] += c.sk.Eval(dx/g.hs, dy/g.hs) * kt * g.norm
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

// applySym is Algorithm 3 (PB-SYM): both invariants are computed once and
// every voxel update is a single multiply-add of disk and bar entries. The
// span engine iterates only the packed in-disk spans, walks rows with
// incremental base arithmetic, and streams the multiply-add through madd4.
func applySym(v view, c *ctx, p grid.Point, clip grid.Box, sc *scratch) {
	g := c.geom(p)
	box := g.box.Clip(clip).Clip(v.box)
	if box.Empty() {
		return
	}
	nx, ny, nt := box.Dims()
	sc.ensure(nx, ny, nt)
	fillDisk(c, p, g, box, sc)
	fillBar(c, p, g, box, sc)
	if sc.barN == 0 {
		return
	}
	bar := sc.bar[:sc.barN]
	bn := len(bar)
	data := v.data
	base := v.base(box.X0, box.Y0, box.T0+sc.barLo)
	off := 0
	for ix := 0; ix < nx; ix++ {
		n := int(sc.spanN[ix])
		if n > 0 {
			rb := base + int(sc.spanLo[ix])*v.strideY
			ks := sc.disk[off : off+n]
			if simd.Enabled() && n*bn >= vectorBlockCutoff {
				// One kernel call walks the whole span: the bar is held
				// in a register across rows and each row is a masked
				// multiply-add — per-lane the same multiply and add as
				// the scalar loop below, so bitwise identical.
				simd.MulAddRows(data[rb:], v.strideY, ks, bar)
			} else {
				for iy := 0; iy < n; iy++ {
					// 4-way unrolled multiply-add; the row reslice pins
					// len(row) == len(bar) so bounds checks vanish. The
					// per-element operation (one multiply, one add, in index
					// order) is exactly the dense scan's, so results are
					// bitwise identical.
					k := ks[iy]
					row := data[rb : rb+bn]
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
					rb += v.strideY
				}
			}
			off += n
			sc.updates += int64(n * bn)
		}
		base += v.strideX
	}
}

// smallSpanCutoff is the extent below which diskSpans and barBounds refine
// directly from the box edges: for tiny boxes the sqrt and float-to-int
// guesses cost more than the handful of exact predicate tests they save.
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
// walk. The vector kernel keeps bars of at most 4 elements resident in a
// register across rows, so its crossover is lower than per-row
// vectorization would allow. Measured with BenchmarkApplySym and the same
// sweep as vectorSpanCutoff.
const vectorBlockCutoff = 8

// diskSpans computes, for every X column of box, the contiguous range of Y
// rows whose voxel centers lie strictly inside the spatial bandwidth circle
// of p (the exact predicate dx^2+dy^2 < hs^2 of the dense scan). A sqrt
// gives the candidate range; the ends are then refined with the exact
// predicate so span membership is bitwise-faithful to the dense scan. It
// returns the packed element total.
func diskSpans(c *ctx, p grid.Point, g geom, box grid.Box, sc *scratch) int {
	nx := box.X1 - box.X0 + 1
	ny := box.Y1 - box.Y0 + 1
	invSRes := 1 / c.spec.SRes
	y0 := c.spec.Domain.Y0
	dy2 := sc.dy2 // filled by fillYCaches
	small := ny <= smallSpanCutoff
	total := 0
	for ix := 0; ix < nx; ix++ {
		dx := c.spec.CenterX(box.X0+ix) - p.X
		dxx := dx * dx
		rem := g.hs2 - dxx
		if rem <= 0 {
			sc.spanLo[ix], sc.spanN[ix] = 0, 0
			continue
		}
		lo, hi := box.Y0, box.Y1
		if !small {
			// Candidate range from the circle equation, one voxel of
			// slack on each side; the exact predicate trims the rest.
			hw := math.Sqrt(rem)
			lo = int(math.Floor((p.Y-hw-y0)*invSRes-0.5)) - 1
			hi = int(math.Ceil((p.Y+hw-y0)*invSRes-0.5)) + 1
			if lo < box.Y0 {
				lo = box.Y0
			}
			if hi > box.Y1 {
				hi = box.Y1
			}
		}
		for lo <= hi && dxx+dy2[lo-box.Y0] >= g.hs2 {
			lo++
		}
		for hi >= lo && dxx+dy2[hi-box.Y0] >= g.hs2 {
			hi--
		}
		if hi < lo {
			sc.spanLo[ix], sc.spanN[ix] = 0, 0
			continue
		}
		sc.spanLo[ix] = int32(lo - box.Y0)
		sc.spanN[ix] = int32(hi - lo + 1)
		total += hi - lo + 1
	}
	return total
}

// barBounds returns the inclusive T range of box whose voxel centers lie
// within the temporal bandwidth (the dense predicate -ht <= dt <= ht),
// refined exactly like diskSpans.
func barBounds(c *ctx, p grid.Point, g geom, box grid.Box) (int, int) {
	lo, hi := box.T0, box.T1
	if hi-lo+1 > smallSpanCutoff {
		invTRes := 1 / c.spec.TRes
		t0 := c.spec.Domain.T0
		ot := float64(c.spec.OT)
		lo = int(math.Floor((p.T-g.ht-t0)*invTRes-0.5-ot)) - 1
		hi = int(math.Ceil((p.T+g.ht-t0)*invTRes-0.5-ot)) + 1
		if lo < box.T0 {
			lo = box.T0
		}
		if hi > box.T1 {
			hi = box.T1
		}
	}
	for lo <= hi {
		dt := c.spec.CenterT(lo) - p.T
		if dt >= -g.ht && dt <= g.ht {
			break
		}
		lo++
	}
	for hi >= lo {
		dt := c.spec.CenterT(hi) - p.T
		if dt >= -g.ht && dt <= g.ht {
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
func fillDisk(c *ctx, p grid.Point, g geom, box grid.Box, sc *scratch) {
	fillYCaches(c, p, g, box, sc)
	fillDiskCols(c, p, g, box, sc)
}

// fillDiskCols is fillDisk after the Y-row caches: the disk spans and the
// packed disk of box's columns, from the caches sc already holds for box's
// Y rows. A caller that applies one event in several X pieces fills the
// caches once and each piece's columns here.
func fillDiskCols(c *ctx, p grid.Point, g geom, box grid.Box, sc *scratch) {
	total := diskSpans(c, p, g, box, sc)
	sc.skEvals += int64(total)
	if c.skFast {
		fillDiskPoly(c, p, g, box, sc)
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
		u := dx * g.invHS
		lo := int(sc.spanLo[ix])
		dst := sc.disk[off : off+n]
		for iy := range dst {
			dst[iy] = c.sk.Eval(u, nv[lo+iy]) * g.norm
		}
		off += n
	}
}

// fillDiskPoly is the devirtualized fillDisk for kernels c*(1-r^2)^deg.
// Each arm reproduces the kernel's Eval expression (same operand order and
// associativity, same support branch), so the packed values are bitwise
// identical to interface dispatch.
func fillDiskPoly(c *ctx, p grid.Point, g geom, box grid.Box, sc *scratch) {
	nx := box.X1 - box.X0 + 1
	kc, invHS, norm := c.skC, g.invHS, g.norm
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
func fillBar(c *ctx, p grid.Point, g geom, box grid.Box, sc *scratch) {
	lo, hi := barBounds(c, p, g, box)
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
			bar[j] = c.tk.Eval(dt * g.invHT)
		}
		return
	}
	kc, invHT := c.tkC, g.invHT
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
