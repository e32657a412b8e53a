package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/grid"
	"repro/internal/par"
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
// The live events are bucketed by expiry frame offset (grid.Spec.ExpiryOT)
// and numbered in ingest order, which is live order: an advance pops the
// buckets its new frame reaches, in O(expired + buckets), and Remove looks
// in one bucket per event.
//
// Every event is applied once. The ring holds Ht hidden layers just past
// the window's end (grid.Ring), and Add, Remove and compaction write each
// event's whole disk × bar over the ring's Gt+Ht layers, so when the
// window advances, the layers entering it already hold every live event's
// contribution and nothing is re-applied. The one exception is events
// whose support reaches past the hidden layers (ingested ahead of the
// window): each advance applies their buckets, in live order, to the
// layers that newly come into reach.
//
// Every bulk apply — Add, Remove, the compaction and restore replay, and
// an advance's look-ahead apply — is the paper's PB-SYM-DD (Algorithm 5)
// over one batch, blocked for the cache. The batch runs in chunks of at
// most prepChunk reaching events, one after another. For each chunk the
// calling goroutine first walks the events once, in batch order, and
// evaluates all that does not depend on the X column: the box clipped to
// the layers, the bar and the Y-row caches. It then cuts the X axis into
// k contiguous strips holding equal shares of the chunk's box columns — k
// at least P = Options.Threads, and large enough that each strip writes
// about stripBytes of the ring at most, so its writes stay in cache — and
// runs the strips over up to P cores. A strip walks the whole chunk
// in batch order and, for each event, evaluates the disk of the event's
// columns in the strip and adds disk × bar into them. The ring is X-major,
// so the strips write disjoint memory, and a voxel lies in exactly one
// strip: each voxel has one owner and receives its events in batch order,
// the same products in the same order as under a one-strip apply of the
// whole batch (the reason batch PB-SYM-DD is bitwise sequential PB-SYM,
// see runDD). The window is therefore bitwise identical for every P,
// every cut and every chunking, and every contract below holds unchanged.
// UpdaterStats.StripApplies counts the event × strip applications, the
// analogue of Stats.PointAssignments. The sketch bookkeeping and the drift
// bound stay on the calling goroutine, once per event in batch order. A
// chunk below stripMinEvents reaching events runs its strips inline.
//
// The ring stores *unnormalized* contributions (ks·kt/(hs²·ht)); Snapshot
// and At divide by the live event count so the reported densities match a
// fresh batch Estimate over the live events.
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
	cfg  UpdaterConfig

	// live holds the live events by expiry frame offset, each bucket in
	// arrival order; n counts them, and seq is the next sequence number.
	live map[int][]liveEvent
	n    int
	seq  int64

	// threads is P, the most cores a bulk apply runs on; scs holds one
	// scratch per strip worker, grown on demand. The prepass evaluates
	// each event with its own scratch, pre (a worker's Y-row caches are
	// views into ys), and leaves the chunk in recs, with their Y-row
	// caches in ys and their bars in bars; cols is the chunk's box-column
	// histogram in difference form (Gx+1 entries, zero between chunks) and
	// cuts the strip boundaries of the current chunk.
	threads int
	scs     []*stripScratch
	pre     *scratch
	recs    []prepped
	ys      []float64
	bars    []float64
	cols    []int
	cuts    []int

	budget *grid.Budget // charged for the ring and the lazy analytics sketch

	ops        int64   // mutations since the last compaction
	residual   float64 // running rounding bound, unnormalized
	contribMax float64 // peak single-event voxel contribution, unnormalized
	stats      UpdaterStats
}

// UpdaterConfig configures a streaming Updater.
type UpdaterConfig struct {
	// Options configures kernels and memory budget exactly like a batch
	// estimation run. Threads is the most cores a bulk apply and an
	// advance's zeroing run on; values < 1 mean GOMAXPROCS. The window is
	// bitwise the same for every value.
	Options Options

	// ResidualLimit triggers a compaction (full re-estimate of the live
	// events) when the running residual bound exceeds it. The bound is in
	// normalized density units, the same scale as Snapshot values.
	// Non-positive means the default 1e-10 — two orders of magnitude under
	// the 1e-9 agreement the tests assert.
	ResidualLimit float64

	// CompactEvery, when positive, additionally forces a compaction every
	// that many mutations (events added or removed, plus the events an
	// advance applies to newly reachable layers). Zero leaves compaction
	// purely residual-driven.
	CompactEvery int

	// strips, when positive, replaces the strip count k a bulk apply cuts
	// each chunk into. It lets the package's tests drive the cut at strip
	// counts the window size would not pick.
	strips int
}

// UpdaterStats reports the work an Updater has done.
type UpdaterStats struct {
	N           int   // live events in the window
	Ops         int64 // total event applications: adds, removes and AdvanceReapplied
	Compactions int64 // full re-estimates triggered by drift control
	Advances    int64 // AdvanceTo calls that moved the window
	Expired     int64 // events dropped because they left the window
	// AdvanceReapplied counts event applications performed inside window
	// advances: events ahead of the window applied to newly reachable
	// layers; a stream whose events never lie ahead keeps it at zero.
	AdvanceReapplied int64
	// ExpiryWalked counts what advances' expiry steps visit: every live
	// bucket, plus the expired events popped from them.
	ExpiryWalked  int64
	ResidualBound float64 // current normalized drift bound
	// StripApplies counts event × strip applications by the mutations Ops
	// counts (compaction and restore replays excluded, as from Ops): an
	// event whose box spans k strips counts k. With one strip it equals the
	// applications that reached the window, which is Ops when every event
	// does; the excess is the cut's overhead, a disk evaluation's fixed
	// cost per extra strip.
	StripApplies int64
	Threads      int // P: the most cores a bulk apply runs on
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
	u := &Updater{ring: ring, cfg: cfg, live: make(map[int][]liveEvent), budget: opt.Budget, threads: opt.Threads, cols: make([]int, spec.Gx+1)}
	u.pos = newCtx(nil, spec, opt)
	// Unnormalized contributions: weigh each event by 1/(hs^2*ht) only;
	// Snapshot divides by the live count.
	u.pos.norm = 1 / (spec.HS * spec.HS * spec.HT)
	u.pos.n = 1
	u.neg = u.pos.withWeight(-1)
	u.setFrame()
	u.pre = newScratch(&u.pos)
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
		Live:     u.liveEvents(),
		Residual: u.residual,
		Ops:      u.ops,
	}, nil
}

// RestoreUpdater rebuilds a streaming estimator from a captured State. The
// ring copies the state's grid into its visible layers and the updater
// files the live events, numbered in State order; the drift counters
// resume as captured, and the ring's hidden layers — which a State does
// not carry — are rebuilt from the live events in live order.
// Applying the same mutations to the restored updater and the original
// then produces bitwise identical windows as long as the captured history
// holds no Remove (live order is then ingest order, the order the
// original's hidden layers were filled in), and windows within
// accumulation rounding otherwise. Work stats (Stats) restart from zero.
func RestoreUpdater(st UpdaterState, cfg UpdaterConfig) (*Updater, error) {
	if math.IsNaN(st.Residual) || st.Residual < 0 || st.Ops < 0 {
		return nil, fmt.Errorf("core: restore updater: drift state out of range")
	}
	ring, err := grid.RestoreRing(st.Grid, cfg.Options.withDefaults().Budget)
	if err != nil {
		return nil, err
	}
	u := newUpdater(ring, cfg)
	for _, p := range st.Live {
		u.insert(p)
	}
	u.residual = st.Residual
	u.ops = st.Ops
	// Only the hidden layers are missing: events that end before them are
	// rejected by their box, before any kernel is evaluated.
	u.applyBatch(&u.pos, st.Live, ring.Spec().Gt, u.pos.spec.Gt-1)
	return u, nil
}

// liveEvent is one live event and its ingest sequence number.
type liveEvent struct {
	p   grid.Point
	seq int64
}

// insert files p, with the next sequence number, in its expiry bucket.
func (u *Updater) insert(p grid.Point) {
	ot := u.pos.spec.ExpiryOT(p.T)
	u.live[ot] = append(u.live[ot], liveEvent{p, u.seq})
	u.seq++
	u.n++
}

// inSeqOrder sorts es by sequence number and returns their events.
func inSeqOrder(es []liveEvent) []grid.Point {
	slices.SortFunc(es, func(a, b liveEvent) int { return cmp.Compare(a.seq, b.seq) })
	pts := make([]grid.Point, len(es))
	for i, e := range es {
		pts[i] = e.p
	}
	return pts
}

// liveEvents returns every live event, in live order.
func (u *Updater) liveEvents() []grid.Point {
	es := make([]liveEvent, 0, u.n)
	for _, b := range u.live {
		es = append(es, b...)
	}
	return inSeqOrder(es)
}

// stripMinEvents is the number of reaching events in a chunk from which
// its strips are handed out to P workers; a smaller chunk runs all its
// strips inline, on the calling goroutine. Waking a second core costs tens
// of microseconds on a virtualized host: on the repository benchmark's
// window (Hs 13, Ht 4, ~5 µs per event) two workers lost to one up to
// 32-event batches and won from 48 on (2-vCPU AVX2 host,
// BenchmarkUpdaterStrips with the cutoff lowered to 1), and still lost up
// to 16 and won at 64 once the strips were sized to the cache.
const stripMinEvents = 48

// stripBytes is B, the ring bytes one X strip of a bulk apply writes at
// most: a chunk whose boxes cover V voxels of a ring of R is cut into at
// least ⌈8·min(V, R)/B⌉ strips, so a strip walks its share of the chunk's
// events inside a slice of the ring that stays in a core's L2 cache (2 MiB
// per core on the host below). Smaller strips split more events, each
// split adding a disk evaluation's fixed cost. BenchmarkUpdaterStream add,
// µs/event at P=1 / P=2 (median of three rounds, 2-vCPU AVX2 host, the
// benchmark window's 18 MB ring; strip applications per event; the last
// row is k = P, no cache floor):
//
//	B = 256 KiB   3.47 / 2.20   (6.99)
//	B = 512 KiB   3.28 / 2.07   (3.97)
//	B =   1 MiB   3.17 / 2.01   (2.51)
//	B =   2 MiB   2.98 / 1.91   (1.71)
//	B =   4 MiB   3.13 / 2.17   (1.35)
//	B =   8 MiB   3.28 / 2.43   (1.18)
//	P strips      4.63 / 2.40   (1.00 / 1.09)
const stripBytes = 2 << 20

// prepChunk is C, the most reaching events one prepass holds. Its buffers
// hold, per event, a record, the Y-row caches (3·(2Hs+1) entries) and the
// bar (at most 2Ht+1 entries) — about 1.8 MB per chunk on the repository
// benchmark's window — so a compaction or restore replay, which hands the
// whole live set to applyBatch, holds one chunk at a time, not the live
// set, and drops it when done (kept, the restored windows' chunks raised
// the benchmark's stream-mixed peak RSS by about 15 MB). A chunk is also
// the unit the strips share out: larger ones spread each chunk's fan-out
// over more events.
const prepChunk = 2048

// stripScratch is a strip worker's scratch, padded past its last field: a
// worker writes its scratch for every event, and two workers' scratches
// sharing a cache line would bounce the line between their cores (20–30 %
// more CPU per event at two workers, on a replay of the benchmark's
// stream-mixed events).
type stripScratch struct {
	scratch
	_ [64]byte
}

// prepped is one reaching event of a chunk, as the prepass leaves it for
// the strips: its influence box, clipped to the applied layers;
// the offsets of its Y-row caches (dy2, nv and nv2 rows of ny entries
// each) in u.ys and of its bar in u.bars; and the ring's physical layer
// of the bar's first entry.
type prepped struct {
	p         grid.Point
	box       grid.Box
	ys        int
	bar, barN int
	phys      int
}

// applyBatch streams c's signed contribution of every event in pts into
// ring layers [tlo, thi] and returns how many events reached any of them
// and how many event × strip applications that took. The calling
// goroutine walks the batch once, in order — the prepass: it clips each
// event's box to the layers, forwards it — the dirty AABB the analytics
// sketch repairs lazily — to the ring, evaluates the event's bar and
// Y-row caches into a record and histograms its X columns for the cut.
// Every prepChunk reaching events, and at the end of the batch, the chunk
// so far is applied (applyChunk) before the walk goes on, so a restore's
// replay, which most live events do not reach, walks the whole live set
// once and holds at most one chunk.
func (u *Updater) applyBatch(c *ctx, pts []grid.Point, tlo, thi int) (reached int, applied int64) {
	// A positive apply can raise a voxel by at most the event's peak kernel
	// contribution (contribMax — exact for the provided kernels, which peak
	// at the origin; a heuristic for exotic user kernels, like the residual
	// bound); a retraction only lowers values.
	peak := 0.0
	if c == &u.pos {
		peak = u.contribMax
	}
	held := cap(u.recs)
	sc := u.pre
	total, vox := 0, 0
	for i, p := range pts {
		box := c.spec.InfluenceBox(p)
		box.T0, box.T1 = max(box.T0, tlo), min(box.T1, thi)
		if box.Empty() {
			continue
		}
		nx, ny, nt := box.Dims()
		sc.ensure(nx, ny, nt)
		fillBar(c, p, box, sc)
		if sc.barN == 0 {
			continue
		}
		fillYCaches(c, p, box, sc)
		if len(u.recs) == 0 {
			u.reserve(min(len(pts)-i, prepChunk))
		}
		// Written in place: reserve sized u.recs for the chunk, and a
		// composite-literal append would build the record on the stack and
		// copy it in.
		n := len(u.recs)
		u.recs = u.recs[:n+1]
		r := &u.recs[n]
		r.p, r.box = p, box
		r.ys, r.bar, r.barN = len(u.ys), len(u.bars), sc.barN
		r.phys = u.ring.PhysOf(box.T0 + sc.barLo)
		u.ys = append(append(append(u.ys, sc.dy2...), sc.nv...), sc.nv2...)
		u.bars = append(u.bars, sc.bar[:sc.barN]...)
		u.ring.MarkDirty(box, peak)
		u.cols[box.X0]++
		u.cols[box.X1+1]--
		total += nx
		vox += nx * ny * nt
		if len(u.recs) == prepChunk {
			reached += len(u.recs)
			applied += u.applyChunk(c, total, vox)
			total, vox = 0, 0
		}
	}
	if len(u.recs) > 0 {
		reached += len(u.recs)
		applied += u.applyChunk(c, total, vox)
	}
	if len(pts) > prepChunk && cap(u.recs) > held {
		// A replay (compaction, restore, a long look-ahead) grew the
		// buffers to a chunk: let them go, so a window keeps only what
		// its batches need.
		u.recs, u.ys, u.bars = nil, nil, nil
	}
	return reached, applied
}

// reserve sizes the empty prepass buffers for a chunk of n events, each
// at its largest, so appending the chunk never grows them and they never
// hold more than one chunk. applyBatch calls it at a chunk's first
// reaching event, so an apply that reaches nothing allocates nothing.
func (u *Updater) reserve(n int) {
	dxy, dt := 2*u.pos.boxHs+1, 2*u.pos.boxHt+1
	if cap(u.recs) < n {
		u.recs = make([]prepped, 0, n)
	}
	if cap(u.ys) < 3*dxy*n {
		u.ys = make([]float64, 0, 3*dxy*n)
	}
	if cap(u.bars) < dt*n {
		u.bars = make([]float64, 0, dt*n)
	}
}

// applyChunk cuts the prepass's chunk, whose boxes span total columns and
// vox voxels, into X strips and applies them over up to P workers — one,
// the calling goroutine, below stripMinEvents events — each strip handed
// to whichever worker is free. It empties the chunk and returns its event
// × strip applications.
func (u *Updater) applyChunk(c *ctx, total, vox int) (applied int64) {
	cuts := u.cut(total, u.stripCount(vox))
	w := u.threads
	if len(u.recs) < stripMinEvents {
		w = 1
	}
	w = min(w, len(cuts)-1)
	for len(u.scs) < w {
		u.scs = append(u.scs, &stripScratch{scratch: *newScratch(&u.pos)})
	}
	counts := make([]int64, w)
	par.Strips(w, cuts, func(w, x0, x1 int) {
		counts[w] += u.applyStrip(c, x0, x1, &u.scs[w].scratch)
	})
	for _, n := range counts {
		applied += n
	}
	u.recs, u.ys, u.bars = u.recs[:0], u.ys[:0], u.bars[:0]
	return applied
}

// stripCount returns k, the X strips a chunk whose boxes cover vox voxels
// is cut into: at least P, and enough that each strip's share of the
// chunk's writes — at most the whole ring — is about stripBytes. A chunk
// whose writes already fit in cache, such as a small batch, keeps P
// strips. UpdaterConfig.strips overrides it.
func (u *Updater) stripCount(vox int) int {
	if u.cfg.strips > 0 {
		return u.cfg.strips
	}
	b := 8 * min(vox, len(u.ring.Data))
	return max(u.threads, (b+stripBytes-1)/stripBytes)
}

// cut places the boundaries of at most k strips of a chunk whose boxes
// u.cols histograms (in difference form) over total columns: the j-th
// strip ends at the first column where the running count reaches j/k of
// the total — the paper's DD load balance, O(Gx) — and each ends on a
// column some box covers, so no strip is idle. cut leaves u.cols zero.
func (u *Updater) cut(total, k int) []int {
	gx := len(u.cols) - 1
	cuts := append(u.cuts[:0], 0)
	run, cover := 0, 0
	for X := 0; X < gx; X++ {
		cover += u.cols[X]
		u.cols[X] = 0
		run += cover
		if j := len(cuts); j < k && cover > 0 && run < total && run*k >= total*j {
			cuts = append(cuts, X+1)
		}
	}
	u.cols[gx] = 0
	u.cuts = append(cuts, gx)
	return u.cuts
}

// applyStrip is one strip of applyChunk: it streams every event of the
// chunk, in batch order, into the X columns [x0, x1) — clipping X exactly
// as the prepass clipped T — and returns how many events touched the
// strip. Per event it evaluates the disk of those columns only, from the
// prepass's Y-row caches, column by column exactly as for the whole box,
// and per disk column the whole bar goes to the ring's T-innermost rows as
// one block update, split in two where it crosses the ring's physical
// wrap. Every voxel receives the product of the same two factors whichever
// side of the window's end, and whichever strip, it lies in. Nothing
// outside the strip's columns is written.
func (u *Updater) applyStrip(c *ctx, x0, x1 int, sc *scratch) (applied int64) {
	gy, L := c.spec.Gy, u.ring.Layers()
	data := u.ring.Data
	for i := range u.recs {
		r := &u.recs[i]
		box := r.box
		box.X0, box.X1 = max(box.X0, x0), min(box.X1, x1-1)
		if box.X0 > box.X1 {
			continue
		}
		nx, ny, _ := box.Dims()
		ys := u.ys[r.ys:]
		sc.dy2, sc.nv, sc.nv2 = ys[:ny:ny], ys[ny:2*ny:2*ny], ys[2*ny:3*ny:3*ny]
		sc.ensure(nx, ny, 0)
		fillDiskCols(c, r.p, box, sc)
		applied++

		bar := u.bars[r.bar : r.bar+r.barN]
		n1 := min(len(bar), L-r.phys) // bar entries before the wrap
		off := 0
		for ix := 0; ix < nx; ix++ {
			n := int(sc.spanN[ix])
			if n == 0 {
				continue
			}
			ks := sc.disk[off : off+n]
			off += n
			col := (box.X0+ix)*gy + box.Y0 + int(sc.spanLo[ix])
			mulAddRows(data[col*L+r.phys:], L, ks, bar[:n1])
			if n1 < len(bar) {
				mulAddRows(data[col*L:], L, ks, bar[n1:])
			}
			sc.updates += int64(n * len(bar))
		}
	}
	return applied
}

// charge advances the drift bound after one event application: every voxel
// the event touched absorbed at most one rounding of magnitude
// eps·(running row value), and the running value is bounded by the live
// count times the peak single-event contribution.
func (u *Updater) charge() {
	u.ops++
	u.stats.Ops++
	u.residual += eps * u.contribMax * float64(u.n+1)
}

// Add folds events into the window estimate.
func (u *Updater) Add(pts ...grid.Point) {
	u.mu.Lock()
	defer u.mu.Unlock()
	_, applied := u.applyBatch(&u.pos, pts, 0, u.pos.spec.Gt-1)
	u.stats.StripApplies += applied
	for _, p := range pts {
		u.insert(p)
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
	// Every copy of an event lies in its one expiry bucket, in live order:
	// drop the first occurrences of each removed event from copies of
	// those buckets, and commit them only if every event was found.
	need := make(map[grid.Point]int, len(pts))
	kept := make(map[int][]liveEvent)
	for _, p := range pts {
		need[p]++
		kept[u.pos.spec.ExpiryOT(p.T)] = nil
	}
	for ot := range kept {
		for _, e := range u.live[ot] {
			if need[e.p] > 0 {
				need[e.p]--
				continue
			}
			kept[ot] = append(kept[ot], e)
		}
	}
	for p, n := range need {
		if n > 0 {
			return fmt.Errorf("core: updater: event (%g, %g, %g) is not in the live window", p.X, p.Y, p.T)
		}
	}
	for ot, b := range kept {
		if len(b) == 0 {
			delete(u.live, ot)
		} else {
			u.live[ot] = b
		}
	}
	u.n -= len(pts)
	_, applied := u.applyBatch(&u.neg, pts, 0, u.pos.spec.Gt-1)
	u.stats.StripApplies += applied
	for range pts {
		u.charge()
	}
	u.maybeCompact()
	return nil
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
	k := u.ring.Spec().AdvanceLayers(t)
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
	// One pass over the buckets. Those at or below the new frame offset
	// hold exactly the events the expiry predicate now drops: their support
	// ends before the first layer's center, so they are inert and dropped
	// without retraction. The k ring layers that came into reach lay past
	// the old ring's end, so only events that outlive the frame starting
	// there — buckets past its offset, ot-k+Gt+Ht, less one bucket of
	// margin for rounding — can touch them; applyBatch's reach test picks
	// the ones that do.
	ot, end := u.ring.Spec().OT, u.pos.spec.Gt-1
	var ahead []liveEvent
	u.stats.ExpiryWalked += int64(len(u.live))
	for key, b := range u.live {
		if key > ot-k+end {
			ahead = append(ahead, b...)
		}
		if key <= ot {
			expired += len(b)
			delete(u.live, key)
		}
	}
	u.n -= expired
	u.stats.ExpiryWalked += int64(expired)
	reached, applied := u.applyBatch(&u.pos, inSeqOrder(ahead), max(end-k+1, 0), end)
	u.stats.AdvanceReapplied += int64(reached)
	u.stats.StripApplies += applied
	for i := 0; i < reached; i++ {
		u.charge()
	}
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
	if u.n > 0 {
		return u.residual / float64(u.n)
	}
	return u.residual
}

// compact is the periodic full re-estimate: zero the ring and re-apply
// every live event in live order, discarding all accumulated cancellation
// rounding.
func (u *Updater) compact() {
	u.ring.Zero()
	u.applyBatch(&u.pos, u.liveEvents(), 0, u.pos.spec.Gt-1)
	u.residual = 0
	u.ops = 0
	u.stats.Compactions++
}

// N returns the number of live events in the window.
func (u *Updater) N() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.n
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
	n := u.n
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
	if n := u.n; n > 0 {
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
	if n := u.n; n > 0 {
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
	n := u.n
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
	return u.liveEvents()
}

// Ring exposes the unnormalized accumulation ring. The caller must not
// mutate it, and must not read it concurrently with mutations.
func (u *Updater) Ring() *grid.Ring { return u.ring }

// Stats reports the updater's work counters.
func (u *Updater) Stats() UpdaterStats {
	u.mu.Lock()
	defer u.mu.Unlock()
	st := u.stats
	st.N = u.n
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
