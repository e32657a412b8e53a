package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/grid"
	"repro/internal/simd"
)

// Updater is the streaming STKDE estimator: a long-lived PB-SYM engine that
// owns a sliding temporal window of density (a grid.Ring), the problem
// spec, and the kernels, and keeps the window exact under three mutations:
//
//   - Add folds new events in — O(Hs²·Ht) per event instead of the
//     O(Gx·Gy·Gt + n·Hs²·Ht) full re-estimate;
//   - Remove retracts previously added events by applying the signed-weight
//     contribution primitive with weight -1 (the bitwise negation of the
//     Add, so cancellation drift is bounded by accumulation rounding);
//   - AdvanceTo slides the window forward by whole voxel layers: an O(1)
//     ring rotation, one pass writing the freed layers — copied in from
//     the lookahead as they enter the window, zeroed otherwise — and
//     expiring events that can no longer reach the window.
//
// Every event is applied once. Beside the Gt-layer ring the updater keeps
// a lookahead: Ht layer images ([layer][X][Y], Y contiguous) covering the
// layers just past the window's end. Add, Remove and compaction evaluate
// an event's disk and bar once over the combined Gt+Ht layers and scatter
// the bar's head into the ring and its tail into the lookahead, so when
// the window advances, its new layers already hold every live event's
// contribution and nothing is re-applied. The one exception is the future
// list: events whose support reaches past the lookahead (ingested ahead of
// the window, or a shard rank's halo events) are applied, at each advance,
// to the layers that newly come into reach.
//
// Every bulk apply — Add, Remove, the compaction and restore replay, and
// an advance's future-list apply — runs on up to P = Options.Threads cores
// as the paper's PB-SYM-DD (Algorithm 5) over one batch: the X axis is cut
// into P contiguous strips holding equal shares of the batch's box
// columns, and every strip worker walks the whole batch in batch order,
// applying each event clipped to its strip. The ring and the lookahead are
// both X-major, so the strips write disjoint memory, and a voxel lies in
// exactly one strip: it receives the same products in the same order as
// under a one-strip apply. The window is therefore bitwise identical for
// every P and every cut, and every contract below holds unchanged. An
// event whose box spans a cut evaluates its disk and bar once per strip;
// UpdaterStats.StripApplies counts that overhead, the analogue of
// Stats.PointAssignments. The sketch bookkeeping and the drift bound stay
// on the calling goroutine, once per event in batch order. P = 1, and any
// batch below stripMinEvents, is the same code with one strip, run inline.
//
// Like the Accumulator, the ring stores *unnormalized* contributions
// (ks·kt/(hs²·ht)); Snapshot and At divide by the live event count so the
// reported densities match a fresh batch Estimate over the live events.
//
// Drift control: every mutation advances a running residual bound (an
// upper estimate of accumulated cancellation rounding, per voxel, in
// normalized density units). When the bound crosses ResidualLimit — or
// every CompactEvery mutations — the updater compacts: it zeroes the ring
// and the lookahead and re-applies every live event, resetting the bound.
// The property tests assert ≤1e-9 agreement with batch estimation across
// arbitrary Add/Remove/AdvanceTo interleavings, including compaction
// boundaries.
//
// Updater is safe for concurrent use.
type Updater struct {
	mu   sync.Mutex
	ring *grid.Ring
	pos  ctx // weight +1, unnormalized (n=1); spec is the combined Gt+Ht frame
	neg  ctx // weight -1
	live []grid.Point
	cfg  UpdaterConfig

	// threads is P, the most X strips a bulk apply is cut into; scs holds
	// one scratch per strip worker, grown on demand. reach indexes the
	// batch events that reach the layers being applied, cols is their
	// box-column histogram in difference form (Gx+1 entries, zero between
	// applies) and cuts the strip boundaries of the current apply.
	threads int
	scs     []*scratch
	reach   []int32
	cols    []int
	cuts    []int

	// look holds the Ht lookahead images: look[j] is combined layer Gt+j,
	// Gx·Gy doubles with Y contiguous. An advance rotates the slice.
	look [][]float64
	// future lists, in live order, the live events whose support reaches
	// past the lookahead.
	future []grid.Point

	budget *grid.Budget // charged for the ring, the lookahead and the lazy analytics sketch

	ops        int64   // mutations since the last compaction
	residual   float64 // running rounding bound, unnormalized
	contribMax float64 // peak single-event voxel contribution, unnormalized
	stats      UpdaterStats
}

// UpdaterConfig configures a streaming Updater.
type UpdaterConfig struct {
	// Options configures kernels, engine and memory budget exactly like a
	// batch estimation run. Threads is the most X strips (and cores) a bulk
	// apply and an advance's copy-in are split over; values < 1 mean
	// GOMAXPROCS. The window is bitwise the same for every value.
	// AdaptiveBandwidth is not supported (per-point normalization would make
	// retraction ambiguous).
	Options Options

	// ResidualLimit triggers a compaction (full re-estimate of the live
	// events) when the running residual bound exceeds it. The bound is in
	// normalized density units, the same scale as Snapshot values.
	// Non-positive means the default 1e-10 — two orders of magnitude under
	// the 1e-9 agreement the tests assert.
	ResidualLimit float64

	// CompactEvery, when positive, additionally forces a compaction every
	// that many mutations (events added or removed, plus the future-list
	// events an advance applies to newly reachable layers). Zero leaves
	// compaction purely residual-driven.
	CompactEvery int
}

// UpdaterStats reports the work an Updater has done.
type UpdaterStats struct {
	N           int   // live events in the window
	Ops         int64 // total event applications: adds, removes and AdvanceReapplied
	Compactions int64 // full re-estimates triggered by drift control
	Advances    int64 // AdvanceTo calls that moved the window
	Expired     int64 // events dropped because they left the window
	// AdvanceReapplied counts event applications performed inside window
	// advances: future-list events applied to newly reachable layers. A
	// stream whose events never lie ahead of the window keeps it at zero.
	AdvanceReapplied int64
	AdvanceCopied    int64   // layers copied into the window from the lookahead
	ResidualBound    float64 // current normalized drift bound
	// StripApplies counts event × strip applications by the mutations Ops
	// counts (compaction and restore replays excluded, as from Ops): an
	// event whose box spans k strips counts k. With one strip it equals the
	// applications that reached the window, which is Ops when every event
	// does; the excess is the parallel apply's recomputation overhead.
	StripApplies int64
	Threads      int // P: the most strips a bulk apply is split into
}

// eps is the double-precision unit roundoff used by the residual bound.
const eps = 0x1p-52

// WindowBytes returns the bytes a streaming window on spec pins for its
// whole life, and charges to its budget: the Gt-layer ring plus the Ht
// lookahead layer images. (The analytics sketch attaches lazily and is
// charged separately, grid.RingSketchBytes.)
func WindowBytes(spec grid.Spec) int64 { return spec.Bytes() + lookaheadBytes(spec) }

func lookaheadBytes(spec grid.Spec) int64 {
	return int64(spec.Gx) * int64(spec.Gy) * int64(spec.Ht) * 8
}

// NewUpdater creates an empty streaming estimator whose window is the
// temporal extent of spec. The window slides forward with AdvanceTo; spec's
// OT frame offset tracks the slide, so Spec().CenterT always reports
// root-frame voxel centers.
func NewUpdater(spec grid.Spec, cfg UpdaterConfig) (*Updater, error) {
	if cfg.Options.AdaptiveBandwidth != nil {
		return nil, fmt.Errorf("core: updater does not support adaptive bandwidths")
	}
	ring, err := grid.NewRing(spec, cfg.Options.withDefaults().Budget)
	if err != nil {
		return nil, err
	}
	return newUpdater(ring, cfg)
}

// newUpdater wraps a ring (fresh or restored) with a zeroed lookahead and
// the evaluation contexts; the ring is released if the lookahead does not
// fit the budget.
func newUpdater(ring *grid.Ring, cfg UpdaterConfig) (*Updater, error) {
	opt := cfg.Options.withDefaults()
	if cfg.ResidualLimit <= 0 {
		cfg.ResidualLimit = 1e-10
	}
	spec := ring.Spec()
	if err := opt.Budget.Alloc(lookaheadBytes(spec)); err != nil {
		ring.Release()
		return nil, err
	}
	u := &Updater{ring: ring, cfg: cfg, budget: opt.Budget, threads: opt.Threads, cols: make([]int, spec.Gx+1)}
	plane := spec.Gx * spec.Gy
	buf := make([]float64, plane*spec.Ht)
	u.look = make([][]float64, spec.Ht)
	for j := range u.look {
		u.look[j] = buf[j*plane : (j+1)*plane]
	}
	u.pos = newCtx(nil, spec, opt)
	// Unnormalized contributions: weigh each event by 1/(hs^2*ht) only;
	// Snapshot divides by the live count (exactly like the Accumulator).
	u.pos.norm = 1 / (spec.HS * spec.HS * spec.HT)
	u.pos.n = 1
	u.neg = u.pos.withWeight(-1)
	u.setFrame()
	// Peak voxel contribution of one event: the provided kernels all peak
	// at the origin. (For exotic user kernels this is an estimate; the
	// bound stays a heuristic trigger, correctness comes from compaction.)
	u.contribMax = math.Abs(u.pos.norm * opt.Spatial.Eval(0, 0) * opt.Temporal.Eval(0))
	return u, nil
}

// setFrame points the evaluation contexts at the window's current frame,
// extended by the lookahead: combined layers [0, Gt) are the ring's,
// [Gt, Gt+Ht) the lookahead's, so an event's influence box and bar cover
// both in one evaluation.
func (u *Updater) setFrame() {
	ext := u.ring.Spec()
	ext.Gt += ext.Ht
	u.pos.spec = ext
	u.neg.spec = ext
}

// UpdaterState is the serializable state of an Updater: everything the
// durability subsystem persists so a restored updater continues the exact
// float-operation sequence of the original — the raw window, the live
// inventory, and the drift-control counters (persisted so the restored
// updater compacts exactly when the uninterrupted run would have).
type UpdaterState struct {
	Grid     *grid.Grid   // raw unnormalized window, logical layer order; Spec.OT is the frame
	Live     []grid.Point // live events, in application order
	Residual float64      // running rounding bound, unnormalized
	Ops      int64        // mutations since the last compaction
}

// State captures the updater's serializable state. The window copy is
// charged to b (nil for an unaccounted transient copy, the checkpoint
// path's choice).
func (u *Updater) State(b *grid.Budget) (UpdaterState, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	g, err := u.ring.Snapshot(b)
	if err != nil {
		return UpdaterState{}, err
	}
	return UpdaterState{
		Grid:     g,
		Live:     append([]grid.Point(nil), u.live...),
		Residual: u.residual,
		Ops:      u.ops,
	}, nil
}

// RestoreUpdater rebuilds a streaming estimator from a captured State. The
// ring adopts the state's grid and the updater its live slice (neither may
// be used afterwards); the drift counters resume as captured, and the
// lookahead — which a State does not carry — is rebuilt from the live
// events in live order. Applying the same mutations to the restored
// updater and the original then produces bitwise identical windows as long
// as the captured history holds no Remove (live order is then ingest
// order, the order the original's lookahead was filled in), and windows
// within accumulation rounding otherwise. Work stats (Stats) restart from
// zero.
func RestoreUpdater(st UpdaterState, cfg UpdaterConfig) (*Updater, error) {
	if cfg.Options.AdaptiveBandwidth != nil {
		return nil, fmt.Errorf("core: updater does not support adaptive bandwidths")
	}
	if math.IsNaN(st.Residual) || st.Residual < 0 || st.Ops < 0 {
		return nil, fmt.Errorf("core: restore updater: drift state out of range")
	}
	ring, err := grid.RestoreRing(st.Grid, cfg.Options.withDefaults().Budget)
	if err != nil {
		return nil, err
	}
	u, err := newUpdater(ring, cfg)
	if err != nil {
		return nil, err
	}
	u.live = st.Live
	u.residual = st.Residual
	u.ops = st.Ops
	u.replay(ring.Spec().Gt)
	return u, nil
}

// stripMinEvents is the number of reaching events from which a bulk apply
// is split into X strips; a smaller batch applies inline as one strip.
// Waking a second core costs tens of microseconds on a virtualized host:
// on the repository benchmark's window (Hs 13, Ht 4, ~6 µs per event) two
// strips lost to one up to 32-event batches and won from 48 on (2-vCPU
// AVX2 host, BenchmarkUpdaterStrips with the cutoff lowered to 1).
const stripMinEvents = 48

// applyBatch streams c's signed contribution of every event in pts into
// combined layers [tlo, thi] and returns how many events reached any of
// them and how many event × strip applications that took. The calling
// goroutine walks the batch once, in order: it clips each event's box,
// forwards the ring part of the box — the dirty AABB the analytics sketch
// repairs lazily — to the ring when a sketch is attached, and indexes the
// events that reach the layers and histograms their X columns for the
// cut. The strip workers then apply those events (applyStrip), so a
// restore's replay, which most live events do not reach, walks the whole
// live set once.
func (u *Updater) applyBatch(c *ctx, pts []grid.Point, tlo, thi int) (reached int, applied int64) {
	gt := c.spec.Gt - c.spec.Ht // c.spec is the combined frame
	sketch := u.ring.Sketch() != nil
	// A positive apply can raise a voxel by at most the event's peak kernel
	// contribution (contribMax — exact for the provided kernels, which peak
	// at the origin; a heuristic for exotic user kernels, like the residual
	// bound); a retraction only lowers values.
	peak := 0.0
	if c == &u.pos {
		peak = u.contribMax
	}
	total := 0
	reach := u.reach[:0]
	for i, p := range pts {
		g := c.geom(p)
		box := g.box
		box.T0, box.T1 = max(box.T0, tlo), min(box.T1, thi)
		if box.Empty() {
			continue
		}
		lo, hi := barBounds(c, p, g, box)
		if lo > hi {
			continue
		}
		reach = append(reach, int32(i))
		if sketch && lo < gt { // the bar has entries inside the window
			u.ring.MarkDirty(box, peak) // clipped to the window's layers
		}
		u.cols[box.X0]++
		u.cols[box.X1+1]--
		total += box.X1 - box.X0 + 1
	}
	u.reach = reach
	if len(reach) == 0 {
		return 0, 0
	}
	cuts := u.cut(total, len(reach))
	for len(u.scs) < len(cuts)-1 {
		u.scs = append(u.scs, newScratch(&u.pos))
	}
	counts := make([]int64, len(cuts)-1)
	inStrips(cuts, func(w, x0, x1 int) {
		counts[w] = u.applyStrip(c, pts, reach, tlo, thi, x0, x1, u.scs[w])
	})
	for _, n := range counts {
		applied += n
	}
	return len(reach), applied
}

// cut places the strip boundaries of a batch whose boxes u.cols histograms
// (in difference form) over total columns: at most P strips, the k-th
// ending at the first column where the running count reaches k/P of the
// total — the paper's DD load balance, O(Gx) — and each ending on a
// column some box covers, so no strip is idle. A batch of fewer than
// stripMinEvents reaching events keeps one strip. cut leaves u.cols zero.
func (u *Updater) cut(total, events int) []int {
	p := u.threads
	if events < stripMinEvents {
		p = 1
	}
	gx := len(u.cols) - 1
	cuts := append(u.cuts[:0], 0)
	run, cover := 0, 0
	for X := 0; X < gx; X++ {
		cover += u.cols[X]
		u.cols[X] = 0
		run += cover
		if k := len(cuts); k < p && cover > 0 && run < total && run*p >= total*k {
			cuts = append(cuts, X+1)
		}
	}
	u.cols[gx] = 0
	u.cuts = append(cuts, gx)
	return u.cuts
}

// inStrips runs body(w, cuts[w], cuts[w+1]) for every strip w, each on its
// own goroutine but the last, which runs on the calling goroutine, and
// returns when all are done: no strip worker outlives the call.
func inStrips(cuts []int, body func(w, x0, x1 int)) {
	last := len(cuts) - 2
	var wg sync.WaitGroup
	wg.Add(last)
	for w := 0; w < last; w++ {
		go func(w int) {
			defer wg.Done()
			body(w, cuts[w], cuts[w+1])
		}(w)
	}
	body(last, cuts[last], cuts[last+1])
	wg.Wait()
}

// applyStrip is one strip worker of applyBatch: it streams every reaching
// event of the batch (pts[i] for i in reach), in batch order, into combined
// layers [tlo, thi] of the X columns [x0, x1) — clipping X exactly as T is
// clipped — and returns how many events touched the strip. The disk and
// the bar are evaluated once per event and strip, column by column exactly
// as for the whole box; per disk column the bar's head goes to the ring's
// T-innermost rows (split at the wrap point) and each tail entry to its
// lookahead image as one Y-contiguous axpy. Every voxel receives the
// product of the same two factors whichever side of the window's end, and
// whichever strip, it lies in. Nothing outside the strip's columns is
// written.
func (u *Updater) applyStrip(c *ctx, pts []grid.Point, reach []int32, tlo, thi, x0, x1 int, sc *scratch) (applied int64) {
	gy, gt := c.spec.Gy, c.spec.Gt-c.spec.Ht
	data := u.ring.Data
	for _, i := range reach {
		p := pts[i]
		g := c.geom(p)
		box := g.box
		box.X0, box.X1 = max(box.X0, x0), min(box.X1, x1-1)
		box.T0, box.T1 = max(box.T0, tlo), min(box.T1, thi)
		if box.Empty() {
			continue
		}
		nx, ny, nt := box.Dims()
		sc.ensure(nx, ny, nt)
		fillBar(c, p, g, box, sc)
		if sc.barN == 0 {
			continue
		}
		fillDisk(c, p, g, box, sc)
		applied++

		bar := sc.bar[:sc.barN]
		t0 := box.T0 + sc.barLo              // combined layer of bar[0]
		head := min(len(bar), max(gt-t0, 0)) // bar entries inside the window
		p0, n1 := 0, 0                       // the head's first physical run
		if head > 0 {
			p0 = u.ring.PhysOf(t0)
			n1 = min(head, gt-p0)
		}
		var tail [][]float64 // tail[j] is the image bar[head+j] lands in
		if head < len(bar) {
			tail = u.look[t0+head-gt:]
		}
		off := 0
		for ix := 0; ix < nx; ix++ {
			n := int(sc.spanN[ix])
			if n == 0 {
				continue
			}
			ks := sc.disk[off : off+n]
			off += n
			col := (box.X0+ix)*gy + box.Y0 + int(sc.spanLo[ix])
			if head > 0 {
				c.mulAddRows(data[col*gt+p0:], gt, ks, bar[:n1])
				if n1 < head {
					c.mulAddRows(data[col*gt:], gt, ks, bar[n1:head])
				}
			}
			for j, kt := range bar[head:] {
				c.axpy(tail[j][col:col+n], ks, kt)
			}
			sc.updates += int64(n * len(bar))
		}
	}
	return applied
}

// mulAddRows is the PB-SYM block update of one disk span on T-innermost
// storage: row iy of data (rows stride apart) += ks[iy]·bar. One multiply
// and one add per voxel, in index order, on every tier.
func (c *ctx) mulAddRows(data []float64, stride int, ks, bar []float64) {
	if c.vector && len(ks)*len(bar) >= vectorBlockCutoff {
		simd.MulAddRows(data, stride, ks, bar)
		return
	}
	for iy, k := range ks {
		row := data[iy*stride:][:len(bar)]
		for j, b := range bar {
			row[j] += k * b
		}
	}
}

// axpy is the same update on Y-contiguous storage: dst += kt·ks for one
// disk span of one lookahead image.
func (c *ctx) axpy(dst, ks []float64, kt float64) {
	if c.vector && len(dst) >= vectorSpanCutoff {
		simd.AxpyScaled(dst, ks, kt)
		return
	}
	for i, k := range ks {
		dst[i] += kt * k
	}
}

// beyondLookahead reports whether the event's temporal support can reach
// past the lookahead's last layer — the future-list membership test. The
// window only moves forward, so once false it stays false.
func (u *Updater) beyondLookahead(p grid.Point) bool {
	ext := &u.pos.spec
	return ext.CenterT(ext.Gt)-p.T <= ext.HT
}

// charge advances the drift bound after one event application: every voxel
// the event touched absorbed at most one rounding of magnitude
// eps·(running row value), and the running value is bounded by the live
// count times the peak single-event contribution.
func (u *Updater) charge() {
	u.ops++
	u.stats.Ops++
	u.residual += eps * u.contribMax * float64(len(u.live)+1)
}

// Add folds events into the window estimate.
func (u *Updater) Add(pts ...grid.Point) {
	u.mu.Lock()
	defer u.mu.Unlock()
	_, applied := u.applyBatch(&u.pos, pts, 0, u.pos.spec.Gt-1)
	u.stats.StripApplies += applied
	for _, p := range pts {
		u.live = append(u.live, p)
		if u.beyondLookahead(p) {
			u.future = append(u.future, p)
		}
		u.charge()
	}
	u.maybeCompact()
}

// Remove retracts previously added events, subtracting their bitwise-exact
// contributions. The call is all-or-nothing: if any event (counting
// multiplicity) is not live in the window, nothing is retracted and an
// error is returned — the live set must stay the exact inventory of the
// grid's contents, or compaction would diverge from it.
func (u *Updater) Remove(pts ...grid.Point) error {
	if len(pts) == 0 {
		return nil
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	need := make(map[grid.Point]int, len(pts))
	for _, p := range pts {
		need[p]++
	}
	for _, p := range u.live {
		if n := need[p]; n > 0 {
			need[p] = n - 1
		}
	}
	for p, n := range need {
		if n > 0 {
			return fmt.Errorf("core: updater: event (%g, %g, %g) is not in the live window", p.X, p.Y, p.T)
		}
	}
	// Drop the first occurrence of each removed event from the live set
	// and, where the event is on it, from the future list.
	for _, p := range pts {
		need[p]++
	}
	u.live = dropEach(u.live, need)
	for _, p := range pts {
		if u.beyondLookahead(p) {
			need[p]++
		}
	}
	u.future = dropEach(u.future, need)
	_, applied := u.applyBatch(&u.neg, pts, 0, u.pos.spec.Gt-1)
	u.stats.StripApplies += applied
	for range pts {
		u.charge()
	}
	u.maybeCompact()
	return nil
}

// dropEach removes, in place, the first need[p] occurrences of every p
// from list, counting need down as it goes.
func dropEach(list []grid.Point, need map[grid.Point]int) []grid.Point {
	kept := list[:0]
	for _, p := range list {
		if n := need[p]; n > 0 {
			need[p] = n - 1
			continue
		}
		kept = append(kept, p)
	}
	return kept
}

// AdvanceTo slides the window forward so its last voxel layer covers time
// t: an O(1) ring rotation and one pass over the freed layers, copying
// into them the lookahead images that now lie inside the window (zeroing
// the rest) — every live event's contribution to the new layers was made
// when the event was added. Events whose temporal support no longer
// reaches the window are expired (dropped without retraction — their
// surviving-layer contributions are exactly zero by kernel support). It
// returns the number of layers advanced (0 when t is already covered; the
// window never moves backward) and the number of expired events.
func (u *Updater) AdvanceTo(t float64) (advanced, expired int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	sp := u.ring.Spec()
	rel := math.Floor((t - sp.Domain.T0) / sp.TRes)
	// Guard the float-to-int conversion on both sides: a NaN or an absurd
	// target (layer index beyond ±2^52, where float64 stops being
	// integer-exact and int conversion becomes implementation-defined —
	// a huge negative value would convert to MinInt64 and the subtraction
	// below would wrap to a huge positive advance) must not corrupt the
	// window's frame offset for the rest of the stream's life. NaN fails
	// both comparisons and no-ops.
	if !(rel > -(1<<52) && rel < 1<<52) {
		return 0, 0
	}
	k := int(rel) - (sp.OT + sp.Gt - 1)
	if k <= 0 {
		return 0, 0
	}
	return u.advance(k)
}

// AdvanceBy slides the window forward by exactly k voxel layers. It is the
// layer-count form of AdvanceTo for drivers that compute the advance once
// and replicate it — the distributed stream coordinator broadcasts one k to
// every rank so all slab windows stay in the same frame. k <= 0 is a no-op.
func (u *Updater) AdvanceBy(k int) (advanced, expired int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if k <= 0 {
		return 0, 0
	}
	return u.advance(k)
}

// advance is the shared body of AdvanceTo and AdvanceBy; k > 0, mu held.
func (u *Updater) advance(k int) (advanced, expired int) {
	u.ring.Rotate(k)
	u.setFrame()
	u.copyIn(k)
	sp := u.ring.Spec()
	// Expire events that cannot contribute to any window layer: the dense
	// predicate keeps voxels with |CenterT - p.T| <= ht, so an event whose
	// support ends strictly before the first layer's center is inert.
	firstCenter := sp.CenterT(0)
	kept := u.live[:0]
	for _, p := range u.live {
		if p.T+sp.HT < firstCenter {
			expired++
			continue
		}
		kept = append(kept, p)
	}
	u.live = kept
	// The k combined layers that came into reach lay past the old
	// lookahead, so only future-list events can touch them; the ones whose
	// support no longer reaches past the new lookahead then leave the list.
	end := u.pos.spec.Gt - 1
	reached, applied := u.applyBatch(&u.pos, u.future, max(end-k+1, 0), end)
	u.stats.AdvanceReapplied += int64(reached)
	u.stats.StripApplies += applied
	for i := 0; i < reached; i++ {
		u.charge()
	}
	stillFuture := u.future[:0]
	for _, p := range u.future {
		if u.beyondLookahead(p) {
			stillFuture = append(stillFuture, p)
		}
	}
	u.future = stillFuture
	u.stats.Advances++
	u.stats.Expired += int64(expired)
	u.maybeCompact()
	return k, expired
}

// copyIn completes a k-layer ring rotation by writing every voxel of the
// new window layers, which the rotation left unzeroed: the first
// min(k, Ht) lookahead images are now window layers Gt-k+j, so each is
// copied into its layer (skipped when k overshot it out of the window
// again) and cleared, every other new layer is zeroed, and the lookahead
// rotates past the images. The writes are split over P equal X strips —
// about the columns each core wrote at ingest — and go row by row, so a
// multi-layer advance touches each row once.
func (u *Updater) copyIn(k int) {
	sp := u.ring.Spec()
	gt, gy, m := sp.Gt, sp.Gy, min(k, sp.Ht)
	var phys []int      // physical layer of each new window layer
	var src [][]float64 // the image it copies, nil for a zeroed layer
	for T := max(gt-k, 0); T < gt; T++ {
		phys = append(phys, u.ring.PhysOf(T))
		if j := T - (gt - k); j < m {
			src = append(src, u.look[j])
			u.stats.AdvanceCopied++
		} else {
			src = append(src, nil)
		}
	}
	p := min(u.threads, sp.Gx)
	cuts := u.cuts[:0]
	for w := 0; w <= p; w++ {
		cuts = append(cuts, w*sp.Gx/p)
	}
	u.cuts = cuts
	peaks := make([]float64, p)
	inStrips(cuts, func(w, x0, x1 int) {
		lo, hi := x0*gy, x1*gy
		peak := 0.0
		for i := lo; i < hi; i++ {
			row := u.ring.Data[i*gt : (i+1)*gt]
			for j, ph := range phys {
				v := 0.0
				if img := src[j]; img != nil {
					v = img[i]
				}
				row[ph] = v
				peak = max(peak, v)
			}
		}
		for _, img := range u.look[:m] {
			clear(img[lo:hi])
		}
		peaks[w] = peak
	})
	peak := 0.0
	for _, v := range peaks {
		peak = max(peak, v)
	}
	// No copied voxel rose above peak, which keeps the sketch's block
	// maxima bounds sound over the layers Rotate reported as zeroed.
	u.ring.MarkDirty(grid.Box{X0: 0, X1: sp.Gx - 1, Y0: 0, Y1: sp.Gy - 1, T0: gt - k, T1: gt - k + m - 1}, peak)
	for ; m > 0; m-- { // rotate the cleared images to the far end
		img := u.look[0]
		copy(u.look, u.look[1:])
		u.look[len(u.look)-1] = img
	}
}

// maybeCompact runs drift control after a mutation batch.
func (u *Updater) maybeCompact() {
	if (u.cfg.CompactEvery > 0 && u.ops >= int64(u.cfg.CompactEvery)) ||
		u.normResidual() > u.cfg.ResidualLimit {
		u.compact()
	}
}

// normResidual is the residual bound in normalized density units.
func (u *Updater) normResidual() float64 {
	if n := len(u.live); n > 0 {
		return u.residual / float64(n)
	}
	return u.residual
}

// compact is the periodic full re-estimate: zero the window and the
// lookahead and re-apply every live event, discarding all accumulated
// cancellation rounding.
func (u *Updater) compact() {
	u.ring.Zero()
	u.replay(0)
	u.residual = 0
	u.ops = 0
	u.stats.Compactions++
}

// replay zeroes the lookahead, re-applies every live event in live order
// to combined layers tlo and up, and rebuilds the future list: compaction
// replays everything (tlo 0), a restore only what its adopted ring does
// not hold (tlo Gt — events that end before the lookahead are rejected by
// their box, before any kernel is evaluated).
func (u *Updater) replay(tlo int) {
	for _, img := range u.look {
		clear(img)
	}
	u.applyBatch(&u.pos, u.live, tlo, u.pos.spec.Gt-1)
	u.future = u.future[:0]
	for _, p := range u.live {
		if u.beyondLookahead(p) {
			u.future = append(u.future, p)
		}
	}
}

// Compact forces a full re-estimate of the window, resetting the residual
// bound to zero.
func (u *Updater) Compact() {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.compact()
}

// N returns the number of live events in the window.
func (u *Updater) N() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.live)
}

// Spec returns the current window sub-spec (OT reflects every advance).
func (u *Updater) Spec() grid.Spec {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.ring.Spec()
}

// Window returns the continuous time range [t0, t1) the window covers.
func (u *Updater) Window() (t0, t1 float64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	sp := u.ring.Spec()
	t0 = sp.Domain.T0 + float64(sp.OT)*sp.TRes
	return t0, t0 + float64(sp.Gt)*sp.TRes
}

// At returns the normalized density at window voxel (X, Y, T).
func (u *Updater) At(X, Y, T int) float64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	n := len(u.live)
	if n == 0 {
		return 0
	}
	return u.ring.At(X, Y, T) / float64(n)
}

// Snapshot returns a normalized copy of the window (a proper density over
// the live events), charged to the given budget.
func (u *Updater) Snapshot(b *grid.Budget) (*grid.Grid, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	g, err := u.ring.Snapshot(b)
	if err != nil {
		return nil, err
	}
	if n := len(u.live); n > 0 {
		inv := 1 / float64(n)
		for i := range g.Data {
			g.Data[i] *= inv
		}
	} else {
		g.Zero() // an empty window is exactly zero, not residual noise
	}
	return g, nil
}

// ensureSketch attaches (lazily, on the first analytics query) the ring's
// incremental block sketch, charged to the updater's budget. Callers hold
// u.mu. Every mutation path already reports dirty boxes through
// applyBatch and the ring's Rotate/Zero hooks, so a sketch enabled at any
// point in the stream's life stays consistent.
func (u *Updater) ensureSketch() (*grid.RingSketch, error) {
	return u.ring.EnableSketch(u.budget)
}

// TopK returns the k highest-density voxels of the live window, in the
// window's logical coordinates, normalized exactly as Snapshot normalizes
// — the same voxels, in the same order, a sequential scan of a fresh
// Snapshot would select — without materializing the O(G) snapshot: the
// incremental sketch rebuilds only the blocks mutations have dirtied and
// prunes the scan to blocks that can still beat the current floor. The
// error is a memory-budget failure from the lazy sketch build.
func (u *Updater) TopK(k int) ([]grid.VoxelDensity, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	sk, err := u.ensureSketch()
	if err != nil {
		return nil, err
	}
	scale := 0.0 // an empty window is exactly zero, like Snapshot
	if n := len(u.live); n > 0 {
		scale = 1 / float64(n)
	}
	return sk.TopK(k, scale), nil
}

// BoxMass integrates the normalized window density over a logical voxel
// box (sum * sres^2 * tres), agreeing with Snapshot-then-Grid.BoxMass to
// within accumulation rounding (≤1e-9 in the property tests) at the cost
// of the dirty blocks plus the box boundary instead of O(G).
func (u *Updater) BoxMass(b grid.Box) (float64, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	n := len(u.live)
	if n == 0 {
		return 0, nil
	}
	sk, err := u.ensureSketch()
	if err != nil {
		return 0, err
	}
	sp := u.ring.Spec()
	return sk.BoxSum(b) / float64(n) * sp.SRes * sp.SRes * sp.TRes, nil
}

// BoxSumRaw returns the raw (unnormalized) sum of the window voxels in the
// logical box, answered from the incremental sketch. It is the mergeable
// shard primitive: a coordinator sums the raw partials from disjoint slab
// ranks and applies the global 1/n normalization once, so the merged answer
// matches a single-process BoxMass over the union of the ranks' events.
func (u *Updater) BoxSumRaw(b grid.Box) (float64, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	sk, err := u.ensureSketch()
	if err != nil {
		return 0, err
	}
	return sk.BoxSum(b), nil
}

// TopKScaled is TopK with a caller-supplied normalization scale instead of
// the local 1/n. A shard coordinator passes the global 1/n so every rank's
// candidate densities are bitwise identical to the voxels a single-process
// scan of the merged, normalized window would see — which keeps the merged
// selection (including index tie-breaks) exact.
func (u *Updater) TopKScaled(k int, scale float64) ([]grid.VoxelDensity, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	sk, err := u.ensureSketch()
	if err != nil {
		return nil, err
	}
	return sk.TopK(k, scale), nil
}

// RawSnapshot copies the window without normalizing — the values are the
// accumulated ks·kt/(hs²·ht) contributions. Shard ranks gather raw slabs so
// the coordinator can merge them and normalize once by the global count.
func (u *Updater) RawSnapshot(b *grid.Budget) (*grid.Grid, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.ring.Snapshot(b)
}

// SketchRebuilds reports the cumulative number of sketch blocks rebuilt by
// analytics queries (0 until the first TopK/BoxMass attaches the sketch) —
// the serving tier's sketch_rebuilds meter.
func (u *Updater) SketchRebuilds() int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	if sk := u.ring.Sketch(); sk != nil {
		return sk.Rebuilt()
	}
	return 0
}

// Live returns a copy of the live events, in application order (the order
// compaction re-applies them).
func (u *Updater) Live() []grid.Point {
	u.mu.Lock()
	defer u.mu.Unlock()
	return append([]grid.Point(nil), u.live...)
}

// Ring exposes the unnormalized accumulation ring. The caller must not
// mutate it, and must not read it concurrently with mutations.
func (u *Updater) Ring() *grid.Ring { return u.ring }

// Stats reports the updater's work counters.
func (u *Updater) Stats() UpdaterStats {
	u.mu.Lock()
	defer u.mu.Unlock()
	st := u.stats
	st.N = len(u.live)
	st.ResidualBound = u.normResidual()
	st.Threads = u.threads
	return st
}

// Release frees the window ring and the lookahead back to their budget.
// The updater must not be used afterwards.
func (u *Updater) Release() {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.ring.Release()
	if u.look != nil {
		u.budget.Free(lookaheadBytes(u.ring.Spec()))
		u.look = nil
	}
}
