package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/grid"
	"repro/internal/par"
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
//     ring rotation, one pass zeroing the freed layers, and expiring
//     events that can no longer reach the window.
//
// Every event is applied once. The ring holds Ht hidden layers just past
// the window's end (grid.Ring), and Add, Remove and compaction write each
// event's whole disk × bar over the ring's Gt+Ht layers, so when the
// window advances, the layers entering it already hold every live event's
// contribution and nothing is re-applied. The one exception is the future
// list: events whose support reaches past the hidden layers (ingested
// ahead of the window) are applied, at each advance, to the layers that
// newly come into reach.
//
// Every bulk apply — Add, Remove, the compaction and restore replay, and
// an advance's future-list apply — runs on up to P = Options.Threads cores
// as the paper's PB-SYM-DD (Algorithm 5) over one batch: the X axis is cut
// into P contiguous strips holding equal shares of the batch's box
// columns, and every strip worker walks the whole batch in batch order,
// applying each event clipped to its strip. The ring is X-major, so the
// strips write disjoint memory, and a voxel lies in exactly one strip: it
// receives the same products in the same order as under a one-strip
// apply. The window is therefore bitwise identical for every P and every
// cut, and every contract below holds unchanged. An event whose box spans
// a cut evaluates its disk and bar once per strip; UpdaterStats.StripApplies
// counts that overhead, the analogue of Stats.PointAssignments. The sketch
// bookkeeping and the drift bound stay on the calling goroutine, once per
// event in batch order. P = 1, and any batch below stripMinEvents, is the
// same code with one strip, run inline.
//
// Like the Accumulator, the ring stores *unnormalized* contributions
// (ks·kt/(hs²·ht)); Snapshot and At divide by the live event count so the
// reported densities match a fresh batch Estimate over the live events.
//
// Drift control: every mutation advances a running residual bound (an
// upper estimate of accumulated cancellation rounding, per voxel, in
// normalized density units). When the bound crosses ResidualLimit — or
// every CompactEvery mutations — the updater compacts: it zeroes the ring
// and re-applies every live event, resetting the bound. The property tests
// assert ≤1e-9 agreement with batch estimation across arbitrary
// Add/Remove/AdvanceTo interleavings, including compaction boundaries.
//
// Updater is safe for concurrent use.
type Updater struct {
	mu   sync.Mutex
	ring *grid.Ring
	pos  ctx // weight +1, unnormalized (n=1); spec spans the ring's Gt+Ht layers
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

	// future lists, in live order, the live events whose support reaches
	// past the ring's hidden layers.
	future []grid.Point

	budget *grid.Budget // charged for the ring and the lazy analytics sketch

	ops        int64   // mutations since the last compaction
	residual   float64 // running rounding bound, unnormalized
	contribMax float64 // peak single-event voxel contribution, unnormalized
	stats      UpdaterStats
}

// UpdaterConfig configures a streaming Updater.
type UpdaterConfig struct {
	// Options configures kernels, engine and memory budget exactly like a
	// batch estimation run. Threads is the most X strips (and cores) a bulk
	// apply and an advance's zeroing are split over; values < 1 mean
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
// whole life, and charges to its budget: the ring's Gt visible and Ht
// hidden layers, grid.RingBytes. (The analytics sketch attaches lazily and
// is charged separately, grid.RingSketchBytes.)
func WindowBytes(spec grid.Spec) int64 { return grid.RingBytes(spec) }

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
	return newUpdater(ring, cfg), nil
}

// newUpdater wraps a ring (fresh or restored) with the evaluation contexts.
func newUpdater(ring *grid.Ring, cfg UpdaterConfig) *Updater {
	opt := cfg.Options.withDefaults()
	if cfg.ResidualLimit <= 0 {
		cfg.ResidualLimit = 1e-10
	}
	spec := ring.Spec()
	u := &Updater{ring: ring, cfg: cfg, budget: opt.Budget, threads: opt.Threads, cols: make([]int, spec.Gx+1)}
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
	return u
}

// setFrame points the evaluation contexts at the window's current frame,
// extended over the ring's hidden layers: an event's influence box and bar
// cover logical layers [0, Gt+Ht) in one evaluation.
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
// ring copies the state's grid into its visible layers and the updater
// adopts its live slice (which may not be used afterwards); the drift
// counters resume as captured, and the ring's hidden layers — which a
// State does not carry — are rebuilt from the live events in live order.
// Applying the same mutations to the restored updater and the original
// then produces bitwise identical windows as long as the captured history
// holds no Remove (live order is then ingest order, the order the
// original's hidden layers were filled in), and windows within
// accumulation rounding otherwise. Work stats (Stats) restart from zero.
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
	u := newUpdater(ring, cfg)
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
// ring layers [tlo, thi] and returns how many events reached any of them
// and how many event × strip applications that took. The calling
// goroutine walks the batch once, in order: it clips each event's box,
// forwards it — the dirty AABB the analytics sketch repairs lazily — to
// the ring, and indexes the events that reach the layers and histograms
// their X columns for the cut. The strip workers then apply those events
// (applyStrip), so a restore's replay, which most live events do not
// reach, walks the whole live set once.
func (u *Updater) applyBatch(c *ctx, pts []grid.Point, tlo, thi int) (reached int, applied int64) {
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
		if lo, hi := barBounds(c, p, g, box); lo > hi {
			continue
		}
		reach = append(reach, int32(i))
		u.ring.MarkDirty(box, peak)
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
	par.Strips(cuts, func(w, x0, x1 int) {
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

// applyStrip is one strip worker of applyBatch: it streams every reaching
// event of the batch (pts[i] for i in reach), in batch order, into ring
// layers [tlo, thi] of the X columns [x0, x1) — clipping X exactly as T is
// clipped — and returns how many events touched the strip. The disk and
// the bar are evaluated once per event and strip, column by column exactly
// as for the whole box, and per disk column the whole bar goes to the
// ring's T-innermost rows as one block update, split in two where it
// crosses the ring's physical wrap. Every voxel receives the product of
// the same two factors whichever side of the window's end, and whichever
// strip, it lies in. Nothing outside the strip's columns is written.
func (u *Updater) applyStrip(c *ctx, pts []grid.Point, reach []int32, tlo, thi, x0, x1 int, sc *scratch) (applied int64) {
	gy, L := c.spec.Gy, u.ring.Layers()
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
		p0 := u.ring.PhysOf(box.T0 + sc.barLo) // physical layer of bar[0]
		n1 := min(len(bar), L-p0)              // bar entries before the wrap
		off := 0
		for ix := 0; ix < nx; ix++ {
			n := int(sc.spanN[ix])
			if n == 0 {
				continue
			}
			ks := sc.disk[off : off+n]
			off += n
			col := (box.X0+ix)*gy + box.Y0 + int(sc.spanLo[ix])
			c.mulAddRows(data[col*L+p0:], L, ks, bar[:n1])
			if n1 < len(bar) {
				c.mulAddRows(data[col*L:], L, ks, bar[n1:])
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

// beyondLookahead reports whether the event's temporal support can reach
// past the ring's last hidden layer — the future-list membership test. The
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
// t: an O(1) ring rotation and one pass zeroing the freed layers, which
// become the newest hidden ones — every live event's contribution to the
// layers entering the window was made when the event was added, into the
// hidden layers. Events whose temporal support no longer
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
// every rank so the ranks' full windows, each over its share of the
// events, stay in the same frame. k <= 0 is a no-op.
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
	u.ring.Advance(k, u.threads)
	u.setFrame()
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
	// The k ring layers that came into reach lay past the old hidden
	// layers, so only future-list events can touch them; the ones whose
	// support no longer reaches past the new hidden layers then leave the
	// list.
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

// compact is the periodic full re-estimate: zero the ring and re-apply
// every live event, discarding all accumulated cancellation rounding.
func (u *Updater) compact() {
	u.ring.Zero()
	u.replay(0)
	u.residual = 0
	u.ops = 0
	u.stats.Compactions++
}

// replay re-applies every live event in live order to ring layers tlo and
// up, into zeroed layers, and rebuilds the future list: compaction replays
// everything (tlo 0), a restore only the hidden layers its copied-in
// window lacks (tlo Gt — events that end before them are rejected by their
// box, before any kernel is evaluated).
func (u *Updater) replay(tlo int) {
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
// applyBatch and the ring's Advance/Zero hooks, so a sketch enabled at any
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
// shard primitive: each rank holds the full window over its share of the
// events, so a coordinator sums the ranks' raw partials in rank order and
// applies the global 1/n normalization once, and the merged answer matches
// a single-process BoxMass over the union of the ranks' events to within
// accumulation rounding.
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
// the local 1/n. Shard ranks pass scale 1: the coordinator's threshold
// top-k takes each rank's raw candidates, sums the raw values of a voxel
// across the ranks and normalizes once, so the merged selection matches a
// single-process TopK to within accumulation rounding — tied densities are
// equal only within 1e-9, and their index order may differ.
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
// accumulated ks·kt/(hs²·ht) contributions. Shard ranks each return their
// full raw window, over their share of the events, so the coordinator can
// sum them voxel by voxel and normalize once by the global count.
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

// Release frees the window ring back to its budget. The updater must not
// be used afterwards.
func (u *Updater) Release() {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.ring.Release()
}
