package dist

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/grid"
	"repro/internal/par"
)

// StreamGroup is a live sliding window sharded across the cluster's ranks
// by temporal slab carving: rank i hosts a core.Updater on slab i's
// sub-spec and receives exactly the events whose temporal influence reaches
// its slab (owner + halo, the batch estimator's replication rule applied to
// a stream). The coordinator keeps the authoritative live list — every
// ingested event, with a bitmask of the ranks it has been replicated to —
// because the global normalization count n and the halo top-up on window
// advances both need it.
//
// Analytics never gather grids. Region mass and single-voxel reads merge
// O(1) raw partial sums from the ranks' incremental sketches; hotspots
// merge O(k) candidate lists scaled rank-side by the *global* 1/n, which
// keeps every candidate density bitwise identical to a single-process scan
// and therefore preserves the selection's index tie-breaks (grid.MergeTopK).
// Snapshot is the one O(G) operation left, retained as the baseline the
// "shard" benchmark compares the sketch gather against.
//
// Window advances broadcast one layer count k to every rank, so all slab
// windows stay in the same frame forever. An event newly entering a rank's
// halo (it was wholly ahead of that slab before the advance) is shipped
// with the advance message; its influence was disjoint from the slab's old
// window, so adding it cannot double-count on surviving layers.
//
// Fault tolerance: the coordinator is authoritative. Mutations commit on
// the coordinator (mutation log + live list + frame offset) whether or not
// every rank acknowledged; a rank that missed mutations is excluded from
// gathers (reduced Coverage under GatherPartial, an error under
// GatherFailFast) until heal re-seeds it by replaying the full mutation
// log through the same router the live path uses — so the rebuilt replica
// receives the byte-identical message sequence an uninterrupted run would
// have sent it, and its Updater state (compaction schedule included) is
// bitwise equal. The full log is retained for the stream's lifetime; for
// long-lived windows the upstream WAL (internal/serve journaling) is the
// durable copy and this in-memory log is the replay fast path.
//
// StreamGroup is safe for concurrent use: a single mutex orders mutations
// and queries exactly like the single-process Updater's.
type StreamGroup struct {
	mu       sync.Mutex
	c        *Cluster
	id       uint64
	threads  int
	base     grid.Spec // creation-time spec, the replay starting frame
	rt       router    // live routing state (current spec, live list)
	ops      []streamOp
	seeded   []int64 // per-rank connection epoch the replica was seeded on
	rebuilds []int64 // last reported per-rank sketch rebuild counters
	released bool
}

// streamOp is one logged mutation, sufficient to re-derive every rank's
// message sequence deterministically.
type streamOp struct {
	pts     []grid.Point // ingest batch (advance == false)
	t       float64      // AdvanceTo target (advance == true)
	advance bool
}

// liveEvent is one ingested event plus its rank-replication mask.
type liveEvent struct {
	p    grid.Point
	mask uint64
}

// maxStreamRanks bounds the replication bitmask width.
const maxStreamRanks = 64

// router is the deterministic event-routing state machine shared by the
// live path and re-seed replay: same spec frame, same live list, same
// float expressions, so a replay derives the byte-identical per-rank
// batches the live path produced.
type router struct {
	spec  grid.Spec   // window spec; OT advances with the window
	slabs []grid.Slab // carved once; T0/T1 are window-relative layers
	live  []liveEvent
}

// layerOf returns the window-relative temporal layer of t as a float (no
// clamping, no int conversion — comparisons against slab bounds stay exact
// and overflow-free for any input).
func (rt *router) layerOf(t float64) float64 {
	return math.Floor((t-rt.spec.Domain.T0)/rt.spec.TRes) - float64(rt.spec.OT)
}

// needs reports whether an event at window-relative layer tl (float; may be
// NaN for absurd inputs, which fails both comparisons) can influence slab sl.
func needs(sl grid.Slab, tl float64, ht int) bool {
	return tl >= float64(sl.T0-ht) && tl <= float64(sl.T1+ht)
}

// ingest routes pts into the live list and returns the per-slab batches.
func (rt *router) ingest(pts []grid.Point) [][]grid.Point {
	batches := make([][]grid.Point, len(rt.slabs))
	for _, p := range pts {
		tl := rt.layerOf(p.T)
		var mask uint64
		for i, sl := range rt.slabs {
			if needs(sl, tl, rt.spec.Ht) {
				mask |= 1 << uint(i)
				batches[i] = append(batches[i], p)
			}
		}
		rt.live = append(rt.live, liveEvent{p: p, mask: mask})
	}
	return batches
}

// advanceTo slides the window so the last layer covers time t, expiring
// events exactly like the single-process Updater (same float expressions,
// same order) and computing each slab's halo top-up. k == 0 means no-op.
func (rt *router) advanceTo(t float64) (k, expired int, batches [][]grid.Point) {
	sp := rt.spec
	rel := math.Floor((t - sp.Domain.T0) / sp.TRes)
	// Same conversion guard as core.Updater.AdvanceTo: NaN and out-of-range
	// targets must no-op, not corrupt the frame offset.
	if !(rel > -(1<<52) && rel < 1<<52) {
		return 0, 0, nil
	}
	k = int(rel) - (sp.OT + sp.Gt - 1)
	if k <= 0 {
		return 0, 0, nil
	}
	rt.spec.OT += k
	sp = rt.spec
	// Expire exactly like the single-process window: an event whose support
	// ends strictly before the first layer's center is inert everywhere.
	firstCenter := sp.CenterT(0)
	kept := rt.live[:0]
	for _, ev := range rt.live {
		if ev.p.T+sp.HT < firstCenter {
			expired++
			continue
		}
		kept = append(kept, ev)
	}
	rt.live = kept
	// Halo top-up: events that newly reach a slab (their influence was
	// disjoint from that slab's old window, so the rank-side Add cannot
	// double-count on surviving layers).
	batches = make([][]grid.Point, len(rt.slabs))
	for idx := range rt.live {
		tl := rt.layerOf(rt.live[idx].p.T)
		for i, sl := range rt.slabs {
			bit := uint64(1) << uint(i)
			if rt.live[idx].mask&bit != 0 {
				continue
			}
			if needs(sl, tl, sp.Ht) {
				rt.live[idx].mask |= bit
				batches[i] = append(batches[i], rt.live[idx].p)
			}
		}
	}
	return k, expired, batches
}

// NewStream creates a sharded live window over the cluster: the window
// spec's time axis is carved into one slab per connected rank (clamped to
// the layer count and the bitmask width) and each rank builds an empty
// slab Updater with the given thread count, capped at the rank's own core
// count; 0 lets every rank use all of its cores. Creation requires every
// participating rank healthy; an established stream then survives rank
// failures (see the fault-tolerance notes on StreamGroup).
func (c *Cluster) NewStream(spec grid.Spec, threads int) (*StreamGroup, error) {
	ranks := c.Ranks()
	if ranks > maxStreamRanks {
		ranks = maxStreamRanks
	}
	slabs := spec.CarveT(ranks)
	g := &StreamGroup{
		c:        c,
		id:       c.nextStream.Add(1),
		threads:  threads,
		base:     spec,
		rt:       router{spec: spec, slabs: slabs},
		seeded:   make([]int64, len(slabs)),
		rebuilds: make([]int64, len(slabs)),
	}
	for i := range g.seeded {
		g.seeded[i] = c.connEpoch(i)
	}
	errs := make([]error, len(slabs))
	par.For(len(slabs), len(slabs), func(i int) {
		reply, err := c.call(i, encodeStreamCreate(g.id, threads, slabs[i].Spec), "create")
		if err == nil {
			_, _, err = decodeOK(reply)
			err = rankErr(i, "create", err)
		}
		errs[i] = err
	})
	for _, err := range errs {
		if err != nil {
			g.closeRanks()
			return nil, err
		}
	}
	c.registerReseeder(g.id, g.reseed)
	return g, nil
}

// closeRanks best-effort closes the rank-side stream state.
func (g *StreamGroup) closeRanks() {
	par.For(len(g.rt.slabs), len(g.rt.slabs), func(i int) {
		if reply, err := g.c.streamCall(i, encodeStreamClose(g.id), "close"); err == nil {
			decodeOK(reply)
		}
	})
}

// rankSeeded reports whether rank i is healthy and holds this stream's
// current replica: the cluster says up, and the replica was seeded on the
// connection that is live right now (an older epoch means the replica died
// with its connection and the rank must sit out until re-seeded).
func (g *StreamGroup) rankSeeded(i int) bool {
	return g.c.rankUp(i) && g.seeded[i] == g.c.connEpoch(i)
}

// coverage counts the ranks currently contributing to this stream.
func (g *StreamGroup) coverage() Coverage {
	live := 0
	for i := range g.rt.slabs {
		if g.rankSeeded(i) {
			live++
		}
	}
	return Coverage{Live: live, Total: len(g.rt.slabs)}
}

// Coverage reports how many of the stream's slab ranks are live and
// seeded right now.
func (g *StreamGroup) Coverage() Coverage {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.coverage()
}

// degraded folds a fan-out's per-rank errors into the mutation contract:
// nil when every rank acknowledged, otherwise a DegradedError wrapping the
// first failure — the coordinator state committed regardless, and failed
// ranks rebuild from the log on reconnect.
func (g *StreamGroup) degraded(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return &DegradedError{Coverage: g.coverage(), Err: err}
		}
	}
	return nil
}

// Add ingests events: each is routed to every rank whose slab its temporal
// influence reaches (possibly none, for events far ahead of the window —
// they still count toward n and are shipped later by AdvanceTo when their
// halo arrives) and appended to the coordinator's live list and mutation
// log. A rank failure yields a DegradedError; the coordinator state is
// committed either way.
func (g *StreamGroup) Add(pts ...grid.Point) error {
	if len(pts) == 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		return errors.New("dist: stream released")
	}
	// The log owns its copy: callers may reuse their slice, and replay
	// must see exactly what was routed.
	cp := append([]grid.Point(nil), pts...)
	g.ops = append(g.ops, streamOp{pts: cp})
	batches := g.rt.ingest(cp)
	errs := g.fanOut("ingest", func(i int) ([]byte, bool) {
		if len(batches[i]) == 0 {
			return nil, false
		}
		return encodeIngest(g.id, batches[i]), true
	}, nil)
	return g.degraded(errs)
}

// AdvanceTo slides every rank's window forward so the last layer covers
// time t, expiring events exactly like the single-process Updater (same
// float expressions, same order) and topping up each rank's halo with the
// events that newly reach its slab. It returns the layers advanced and the
// events expired; a rank failure yields a DegradedError with the counts
// still valid (the coordinator's frame advanced).
func (g *StreamGroup) AdvanceTo(t float64) (advanced, expired int, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		return 0, 0, errors.New("dist: stream released")
	}
	k, expired, batches := g.rt.advanceTo(t)
	if k <= 0 {
		return 0, 0, nil
	}
	// Logged only when effective: replay recomputes the same k from the
	// same frame, so no-op advances would only bloat the log.
	g.ops = append(g.ops, streamOp{t: t, advance: true})
	errs := g.fanOut("advance", func(i int) ([]byte, bool) {
		return encodeAdvance(g.id, k, batches[i]), true
	}, nil)
	return k, expired, g.degraded(errs)
}

// fanOut builds and sends one request per rank (skipping ranks where build
// returns false), decodes msgOK acknowledgements, and returns the per-rank
// error slice. Ranks that are down or hold a stale replica fail fast with
// ErrRankDown instead of touching the transport.
func (g *StreamGroup) fanOut(phase string, build func(i int) ([]byte, bool), onReply func(i int, a, b int64)) []error {
	errs := make([]error, len(g.rt.slabs))
	par.For(len(g.rt.slabs), len(g.rt.slabs), func(i int) {
		req, ok := build(i)
		if !ok {
			return
		}
		if !g.rankSeeded(i) {
			errs[i] = rankErr(i, phase, ErrRankDown)
			return
		}
		reply, err := g.c.streamCall(i, req, phase)
		if err != nil {
			errs[i] = err
			return
		}
		a, b, err := decodeOK(reply)
		if err != nil {
			errs[i] = rankErr(i, phase, err)
			return
		}
		if onReply != nil {
			onReply(i, a, b)
		}
	})
	return errs
}

// reseed rebuilds rank r's slab replica after a reconnect: it replays the
// stream's full mutation log through a fresh router seeded with the
// creation-time spec, sending the rank exactly the create/ingest/advance
// sequence an uninterrupted run would have sent it — so the rebuilt
// Updater state, compaction schedule included, is bitwise equal. Runs
// under the stream mutex: concurrent mutations order strictly before or
// after the replay and stay consistent either way.
func (g *StreamGroup) reseed(rank int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released || rank >= len(g.rt.slabs) {
		return nil
	}
	epoch := g.c.connEpoch(rank)
	send := func(req []byte, phase string) error {
		reply, err := g.c.streamCall(rank, req, phase)
		if err != nil {
			return err
		}
		if _, _, err := decodeOK(reply); err != nil {
			return rankErr(rank, phase, err)
		}
		return nil
	}
	// Drop any stale replica first (idempotent — a fresh connection has
	// none, but a heal retried after a partial replay might).
	if err := send(encodeStreamClose(g.id), "close"); err != nil {
		return err
	}
	if err := send(encodeStreamCreate(g.id, g.threads, g.rt.slabs[rank].Spec), "create"); err != nil {
		return err
	}
	sim := router{spec: g.base, slabs: g.rt.slabs}
	for _, op := range g.ops {
		if op.advance {
			k, _, batches := sim.advanceTo(op.t)
			if k <= 0 {
				continue
			}
			if err := send(encodeAdvance(g.id, k, batches[rank]), "advance"); err != nil {
				return err
			}
		} else {
			batches := sim.ingest(op.pts)
			if len(batches[rank]) > 0 {
				if err := send(encodeIngest(g.id, batches[rank]), "ingest"); err != nil {
					return err
				}
			}
		}
	}
	g.seeded[rank] = epoch
	return nil
}

// Spec returns the current window spec (OT reflects every advance).
func (g *StreamGroup) Spec() grid.Spec {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rt.spec
}

// Window returns the continuous time range [t0, t1) the window covers.
func (g *StreamGroup) Window() (t0, t1 float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	sp := g.rt.spec
	t0 = sp.Domain.T0 + float64(sp.OT)*sp.TRes
	return t0, t0 + float64(sp.Gt)*sp.TRes
}

// N returns the number of live events in the window.
func (g *StreamGroup) N() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.rt.live)
}

// Live returns a copy of the live events in ingest order.
func (g *StreamGroup) Live() []grid.Point {
	g.mu.Lock()
	defer g.mu.Unlock()
	pts := make([]grid.Point, len(g.rt.live))
	for i, ev := range g.rt.live {
		pts[i] = ev.p
	}
	return pts
}

// At returns the normalized density at window voxel (X, Y, T): a one-voxel
// raw region read from the owning rank (the sketch's boundary scan returns
// the exact raw voxel), normalized by the global live count. A voxel owned
// by a down rank fails fast with an attributed RankError wrapping
// ErrRankDown — unlike box and top-k gathers there is no partial answer
// for a single voxel.
func (g *StreamGroup) At(X, Y, T int) (float64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		return 0, errors.New("dist: stream released")
	}
	n := len(g.rt.live)
	if n == 0 {
		return 0, nil
	}
	for i, sl := range g.rt.slabs {
		if T >= sl.T0 && T <= sl.T1 {
			if !g.rankSeeded(i) {
				return 0, rankErr(i, "query", ErrRankDown)
			}
			b := grid.Box{X0: X, X1: X, Y0: Y, Y1: Y, T0: T - sl.T0, T1: T - sl.T0}
			reply, err := g.c.streamCall(i, encodeRegion(g.id, b), "query")
			if err != nil {
				return 0, err
			}
			v, rb, err := decodeSum(reply)
			if err != nil {
				return 0, rankErr(i, "query", err)
			}
			g.rebuilds[i] = rb
			return v / float64(n), nil
		}
	}
	return 0, fmt.Errorf("dist: voxel layer %d outside the window", T)
}

// gatherCoverage counts the ranks that actually stood behind a gather:
// seeded, healthy, and error-free this round.
func (g *StreamGroup) gatherCoverage(errs []error) Coverage {
	live := 0
	for i := range g.rt.slabs {
		if errs[i] == nil && g.rankSeeded(i) {
			live++
		}
	}
	return Coverage{Live: live, Total: len(g.rt.slabs)}
}

// gatherPolicyErr returns the error a degraded gather must surface under
// GatherFailFast: the first per-rank failure, or an ErrRankDown for the
// first unseeded rank when no call even went out.
func (g *StreamGroup) gatherPolicyErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := range g.rt.slabs {
		if !g.rankSeeded(i) {
			return rankErr(i, "query", ErrRankDown)
		}
	}
	return nil
}

// BoxMass integrates the normalized window density over a logical voxel
// box; see BoxMassCov. Degradation handling follows the cluster's gather
// policy: under GatherPartial a reduced-coverage answer returns nil error.
func (g *StreamGroup) BoxMass(b grid.Box) (float64, error) {
	v, _, err := g.BoxMassCov(b)
	return v, err
}

// BoxMassCov integrates the normalized window density over a logical voxel
// box: each overlapping live rank answers the raw partial sum of its
// slab's share from its incremental sketch, and the partials are combined
// in rank order (deterministic summation) before the single global
// normalization. The returned Coverage counts the ranks that contributed
// (or stood ready outside the box); under GatherPartial a down rank only
// shrinks coverage, under GatherFailFast it fails the query.
func (g *StreamGroup) BoxMassCov(b grid.Box) (float64, Coverage, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		return 0, Coverage{}, errors.New("dist: stream released")
	}
	cov := g.coverage()
	n := len(g.rt.live)
	if n == 0 {
		return 0, cov, nil
	}
	sp := g.rt.spec
	b = b.Clip(sp.Bounds())
	if b.Empty() {
		return 0, cov, nil
	}
	slabs := g.rt.slabs
	sums := make([]float64, len(slabs))
	hits := make([]bool, len(slabs))
	errs := make([]error, len(slabs))
	par.For(len(slabs), len(slabs), func(i int) {
		sl := slabs[i]
		t0, t1 := b.T0, b.T1
		if t0 < sl.T0 {
			t0 = sl.T0
		}
		if t1 > sl.T1 {
			t1 = sl.T1
		}
		if t0 > t1 {
			return // no overlap; the rank still counts toward coverage
		}
		if !g.rankSeeded(i) {
			errs[i] = rankErr(i, "query", ErrRankDown)
			return
		}
		lb := grid.Box{X0: b.X0, X1: b.X1, Y0: b.Y0, Y1: b.Y1, T0: t0 - sl.T0, T1: t1 - sl.T0}
		reply, err := g.c.streamCall(i, encodeRegion(g.id, lb), "query")
		if err != nil {
			errs[i] = err
			return
		}
		v, rb, err := decodeSum(reply)
		if err != nil {
			errs[i] = rankErr(i, "query", err)
			return
		}
		sums[i], hits[i] = v, true
		g.rebuilds[i] = rb
	})
	cov = g.gatherCoverage(errs)
	if g.c.policy == GatherFailFast {
		if err := g.gatherPolicyErr(errs); err != nil {
			return 0, cov, err
		}
	}
	total := 0.0
	for i, v := range sums {
		if hits[i] {
			total += v
		}
	}
	return total / float64(n) * sp.SRes * sp.SRes * sp.TRes, cov, nil
}

// TopK returns the k highest-density voxels of the merged window; see
// TopKCov. Degradation handling follows the cluster's gather policy.
func (g *StreamGroup) TopK(k int) ([]grid.VoxelDensity, error) {
	cands, _, err := g.TopKCov(k)
	return cands, err
}

// TopKCov returns the k highest-density voxels of the merged window plus
// the coverage that produced them. Every live rank selects its own k best
// with the global 1/n scale (so candidate values are bitwise the
// single-process scan's), candidates shift into the window frame, and
// MergeTopK re-selects under the same total order — every window voxel is
// owned by exactly one rank, so the global top-k is a subset of the union
// of the per-rank lists. A down rank's voxels are simply absent under
// GatherPartial (coverage says so); GatherFailFast fails instead.
func (g *StreamGroup) TopKCov(k int) ([]grid.VoxelDensity, Coverage, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		return nil, Coverage{}, errors.New("dist: stream released")
	}
	cov := g.coverage()
	if k <= 0 {
		return nil, cov, nil
	}
	scale := 0.0 // an empty window is exactly zero, like Snapshot
	if n := len(g.rt.live); n > 0 {
		scale = 1 / float64(n)
	}
	slabs := g.rt.slabs
	lists := make([][]grid.VoxelDensity, len(slabs))
	errs := make([]error, len(slabs))
	par.For(len(slabs), len(slabs), func(i int) {
		if !g.rankSeeded(i) {
			errs[i] = rankErr(i, "query", ErrRankDown)
			return
		}
		reply, err := g.c.streamCall(i, encodeTopK(g.id, k, scale), "query")
		if err != nil {
			errs[i] = err
			return
		}
		rb, cands, err := decodeTopKAns(reply)
		if err != nil {
			errs[i] = rankErr(i, "query", err)
			return
		}
		for j := range cands {
			cands[j].T += slabs[i].T0
		}
		lists[i] = cands
		g.rebuilds[i] = rb
	})
	cov = g.gatherCoverage(errs)
	if g.c.policy == GatherFailFast {
		if err := g.gatherPolicyErr(errs); err != nil {
			return nil, cov, err
		}
	}
	return grid.MergeTopK(g.rt.spec, k, lists...), cov, nil
}

// Snapshot gathers every rank's raw slab grid, merges the disjoint slabs
// and normalizes once by the global live count — the O(G) baseline the
// sketch-merging queries above exist to avoid. A snapshot needs every
// slab, so any down rank fails it with an attributed RankError.
func (g *StreamGroup) Snapshot(b *grid.Budget) (*grid.Grid, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		return nil, errors.New("dist: stream released")
	}
	sp := g.rt.spec
	slabs := g.rt.slabs
	for i := range slabs {
		if !g.rankSeeded(i) {
			return nil, rankErr(i, "snapshot", ErrRankDown)
		}
	}
	out, err := grid.NewGrid(sp, b)
	if err != nil {
		return nil, err
	}
	datas := make([][]float64, len(slabs))
	errs := make([]error, len(slabs))
	par.For(len(slabs), len(slabs), func(i int) {
		reply, err := g.c.streamCall(i, encodeSnapshot(g.id), "snapshot")
		if err != nil {
			errs[i] = err
			return
		}
		_, _, data, err := decodeGather(reply)
		if err != nil {
			errs[i] = rankErr(i, "snapshot", err)
			return
		}
		datas[i] = data
	})
	for _, err := range errs {
		if err != nil {
			out.Release()
			return nil, err
		}
	}
	for i, data := range datas {
		nt := slabs[i].T1 - slabs[i].T0 + 1
		if len(data) != sp.Gx*sp.Gy*nt {
			out.Release()
			return nil, rankErr(i, "snapshot", fmt.Errorf("slab grid has %d voxels, want %d", len(data), sp.Gx*sp.Gy*nt))
		}
		t0 := slabs[i].T0
		for X := 0; X < sp.Gx; X++ {
			for Y := 0; Y < sp.Gy; Y++ {
				src := data[(X*sp.Gy+Y)*nt : (X*sp.Gy+Y+1)*nt]
				dst := out.Idx(X, Y, t0)
				copy(out.Data[dst:dst+nt], src)
			}
		}
	}
	if n := len(g.rt.live); n > 0 {
		inv := 1 / float64(n)
		for i := range out.Data {
			out.Data[i] *= inv
		}
	} else {
		out.Zero()
	}
	return out, nil
}

// SketchRebuilds reports the cumulative sketch blocks rebuilt across all
// ranks, as of the latest analytics replies.
func (g *StreamGroup) SketchRebuilds() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var total int64
	for _, rb := range g.rebuilds {
		total += rb
	}
	return total
}

// Release closes the rank-side stream state. The group must not be used
// afterwards.
func (g *StreamGroup) Release() {
	g.mu.Lock()
	if g.released {
		g.mu.Unlock()
		return
	}
	g.released = true
	g.mu.Unlock()
	g.c.unregisterReseeder(g.id)
	g.closeRanks()
}
