package dist

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/grid"
	"repro/internal/par"
)

// StreamGroup is a live sliding window sharded across the cluster's ranks
// by event: the i-th event ingested since creation goes to rank i mod R,
// and every rank runs a core.Updater over the whole window. This is the
// source paper's PB-SYM-DR applied to a stream — the domain is replicated,
// the points are split, and the replicas sum to the estimate — with the
// reduction deferred to read time. Ingest ships every event once, an
// advance broadcasts one layer count and ships nothing, and a stream costs
// R windows (core.WindowBytes each) of rank memory.
//
// The coordinator keeps no per-event state beyond the mutation log. The
// global live count n is bucketed by each event's expiry frame offset — the
// first OT at which core.Updater's own predicate drops it — so an advance
// pops whole buckets in O(layers), in step with the ranks whatever their
// health. Reads sum the ranks' raw partials in rank order and normalize
// once by n, so sharded answers agree with a single-process window within
// 1e-9, not bitwise, and top-k ties are equal within 1e-9.
//
// Fault tolerance: the coordinator is authoritative. Mutations commit on
// the coordinator whether or not every rank acknowledged; a rank that
// missed mutations is excluded from reads (reduced Coverage under
// GatherPartial — its share of the events is missing from every voxel —
// and an error under GatherFailFast) until heal re-seeds it by replaying
// the full mutation log through the same routing the live path uses. The
// rebuilt replica receives the byte-identical message sequence an
// uninterrupted run would have sent it, so its Updater state, compaction
// schedule included, is bitwise equal. The log is retained for the
// stream's lifetime; the upstream WAL (internal/serve journaling) is the
// durable copy and this in-memory log is the replay fast path.
//
// StreamGroup is safe for concurrent use: a single mutex orders mutations
// and queries exactly like the single-process Updater's.
type StreamGroup struct {
	mu       sync.Mutex
	c        *Cluster
	id       uint64
	threads  int
	base     grid.Spec   // creation-time spec, the replay starting frame
	spec     grid.Spec   // current window spec; OT advances with the window
	seq      int         // events ingested since creation, the routing counter
	n        int         // live events, the sum of expiry
	expiry   map[int]int // live events by expiry frame offset (expiryOT)
	ops      []streamOp
	lastAdv  int     // len(ops) right after the last effective advance
	seeded   []int64 // per-rank connection epoch the replica was seeded on
	rebuilds []int64 // last reported per-rank sketch rebuild counters
	stats    StreamStats
	released bool
}

// StreamStats counts a sharded window's coordinator work: exact counts of
// what crossed the wire, not clocks.
type StreamStats struct {
	EventsShipped int64 // events in ingest messages ranks acknowledged (re-seed replays excluded)
	TopKRounds    int64 // threshold-algorithm rounds over all hotspot reads
	VoxelsFetched int64 // raw voxel values fetched from ranks by hotspot and point reads
}

// streamOp is one logged mutation, sufficient to re-derive every rank's
// message sequence deterministically.
type streamOp struct {
	pts     []grid.Point // ingest batch (advance == false)
	t       float64      // AdvanceTo target (advance == true)
	advance bool
}

var errReleased = errors.New("dist: stream released")

// maxFrame is core.Updater.AdvanceTo's conversion guard (narrowed to fit
// a 32-bit int): every reachable frame offset lies strictly between
// -maxFrame and maxFrame.
const maxFrame = min(1<<52, math.MaxInt>>2)

// expiryOT returns the smallest frame offset OT at which core.Updater's
// expiry predicate t+HT < CenterT(0) holds for an event at time t: a floor
// estimate, confirmed against the predicate itself. When float rounding
// moved the boundary off the estimate, or the time is absurd, a binary
// search of the reachable range with the predicate (monotone in OT) places
// it: an event expired at every reachable frame maps to -maxFrame (the
// next effective advance pops it), one that never expires (a NaN or
// far-future time) to maxFrame+1.
func expiryOT(sp grid.Spec, t float64) int {
	expired := func(ot int) bool {
		sp.OT = ot
		return t+sp.HT < sp.CenterT(0)
	}
	est := math.Floor((t+sp.HT-sp.Domain.T0)/sp.TRes-0.5) + 1
	if est > -maxFrame && est < maxFrame && expired(int(est)) && !expired(int(est)-1) {
		return int(est)
	}
	return sort.Search(2*maxFrame+1, func(i int) bool { return expired(i - maxFrame) }) - maxFrame
}

// advanceLayers returns the layers an AdvanceTo(t) slides a window on sp:
// the same float expressions and conversion guard as
// core.Updater.AdvanceTo, so NaN and out-of-range targets no-op. A result
// <= 0 means no advance.
func advanceLayers(sp grid.Spec, t float64) int {
	rel := math.Floor((t - sp.Domain.T0) / sp.TRes)
	if !(rel > -maxFrame && rel < maxFrame) {
		return 0
	}
	return int(rel) - (sp.OT + sp.Gt - 1)
}

// share returns the events of an ingest batch that rank owns, in batch
// order, when the batch's first event has routing number seq.
func share(pts []grid.Point, seq, ranks, rank int) []grid.Point {
	var out []grid.Point
	for j := ((rank-seq)%ranks + ranks) % ranks; j < len(pts); j += ranks {
		out = append(out, pts[j])
	}
	return out
}

// NewStream creates a sharded live window over the cluster: every
// connected rank builds an empty full-window Updater with the given thread
// count, capped at the rank's own core count; 0 lets every rank use all of
// its cores. Creation requires every rank healthy; an established stream
// then survives rank failures (see the fault-tolerance notes on
// StreamGroup).
func (c *Cluster) NewStream(spec grid.Spec, threads int) (*StreamGroup, error) {
	r := c.Ranks()
	g := &StreamGroup{
		c:        c,
		id:       c.nextStream.Add(1),
		threads:  threads,
		base:     spec,
		spec:     spec,
		expiry:   make(map[int]int),
		seeded:   make([]int64, r),
		rebuilds: make([]int64, r),
	}
	for i := range g.seeded {
		g.seeded[i] = c.connEpoch(i)
	}
	errs := make([]error, r)
	par.For(r, r, func(i int) {
		reply, err := c.call(i, encodeStreamCreate(g.id, threads, spec), "create")
		if err == nil {
			err = rankErr(i, "create", ack(i, reply))
		}
		errs[i] = err
	})
	if err := firstErr(errs); err != nil {
		g.closeRanks()
		return nil, err
	}
	c.registerReseeder(g.id, g.reseed)
	return g, nil
}

// ranks returns R, the stream's rank count.
func (g *StreamGroup) ranks() int { return len(g.seeded) }

// closeRanks best-effort closes the rank-side stream state.
func (g *StreamGroup) closeRanks() {
	par.For(g.ranks(), g.ranks(), func(i int) {
		g.c.streamCall(i, encodeStreamClose(g.id), "close")
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
	for i := range g.seeded {
		if g.rankSeeded(i) {
			live++
		}
	}
	return Coverage{Live: live, Total: g.ranks()}
}

// Coverage reports how many of the stream's ranks are live and seeded
// right now.
func (g *StreamGroup) Coverage() Coverage {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.coverage()
}

// degraded folds a mutation's per-rank errors into the mutation contract:
// nil when every rank acknowledged, otherwise a DegradedError wrapping the
// first failure — the coordinator state committed regardless, and failed
// ranks rebuild from the log on reconnect.
func (g *StreamGroup) degraded(errs []error) error {
	if err := firstErr(errs); err != nil {
		return &DegradedError{Coverage: g.coverage(), Err: err}
	}
	return nil
}

// ack decodes a mutation's msgOK acknowledgement.
func ack(_ int, reply []byte) error {
	_, _, err := decodeOK(reply)
	return err
}

// Add ingests events: the batch's events are dealt to the ranks by routing
// number (seq mod R), counted into the expiry buckets, and appended to the
// mutation log. A rank with no event in the batch receives no message. A
// rank failure yields a DegradedError; the coordinator state is committed
// either way.
func (g *StreamGroup) Add(pts ...grid.Point) error {
	if len(pts) == 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		return errReleased
	}
	// The log owns its copy: callers may reuse their slice, and replay
	// must see exactly what was routed.
	cp := append([]grid.Point(nil), pts...)
	g.ops = append(g.ops, streamOp{pts: cp})
	for _, p := range cp {
		g.expiry[expiryOT(g.spec, p.T)]++
	}
	g.n += len(cp)
	batches := make([][]grid.Point, g.ranks())
	for i := range batches {
		batches[i] = share(cp, g.seq, g.ranks(), i)
	}
	g.seq += len(cp)
	errs := g.call("ingest", func(i int) []byte {
		if len(batches[i]) == 0 {
			return nil
		}
		return encodeIngest(g.id, batches[i])
	}, ack)
	for i, err := range errs {
		if err == nil {
			g.stats.EventsShipped += int64(len(batches[i]))
		}
	}
	return g.degraded(errs)
}

// AdvanceTo slides every rank's window forward so the last layer covers
// time t, and pops the expiry buckets the new frame reaches — exactly the
// events every rank's Updater expires (same predicate, same frame),
// including late events ingested behind the window since the last advance.
// It returns the layers advanced and the events expired; a rank failure
// yields a DegradedError with the counts still valid (the coordinator's
// frame advanced).
func (g *StreamGroup) AdvanceTo(t float64) (advanced, expired int, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		return 0, 0, errReleased
	}
	k := advanceLayers(g.spec, t)
	if k <= 0 {
		return 0, 0, nil
	}
	g.spec.OT += k
	for ot, count := range g.expiry {
		if ot <= g.spec.OT {
			expired += count
			delete(g.expiry, ot)
		}
	}
	g.n -= expired
	// Logged only when effective: replay recomputes the same k from the
	// same frame, so no-op advances would only bloat the log.
	g.ops = append(g.ops, streamOp{t: t, advance: true})
	g.lastAdv = len(g.ops)
	errs := g.call("advance", func(int) []byte { return encodeAdvance(g.id, k) }, ack)
	return k, expired, g.degraded(errs)
}

// call sends one request to every seeded rank in parallel (skipping the
// ranks req returns nil for) and hands each reply to decode, returning the
// per-rank errors. Ranks that are down or hold a stale replica fail fast
// with ErrRankDown instead of touching the transport.
func (g *StreamGroup) call(phase string, req func(i int) []byte, decode func(i int, reply []byte) error) []error {
	errs := make([]error, g.ranks())
	par.For(g.ranks(), g.ranks(), func(i int) {
		msg := req(i)
		switch {
		case msg == nil:
		case !g.rankSeeded(i):
			errs[i] = rankErr(i, phase, ErrRankDown)
		default:
			reply, err := g.c.streamCall(i, msg, phase)
			if err == nil {
				err = rankErr(i, phase, decode(i, reply))
			}
			errs[i] = err
		}
	})
	return errs
}

// reseed rebuilds rank r's replica after a reconnect: it replays the
// stream's full mutation log from the creation-time frame, dealing every
// batch by the same routing numbers, so the rank receives exactly the
// create/ingest/advance sequence an uninterrupted run would have sent it
// and the rebuilt Updater state, compaction schedule included, is bitwise
// equal. Runs under the stream mutex: concurrent mutations order strictly
// before or after the replay and stay consistent either way.
func (g *StreamGroup) reseed(rank int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released || rank >= g.ranks() {
		return nil
	}
	epoch := g.c.connEpoch(rank)
	send := func(req []byte, phase string) error {
		reply, err := g.c.streamCall(rank, req, phase)
		if err != nil {
			return err
		}
		return rankErr(rank, phase, ack(rank, reply))
	}
	// Drop any stale replica first (idempotent — a fresh connection has
	// none, but a heal retried after a partial replay might).
	if err := send(encodeStreamClose(g.id), "close"); err != nil {
		return err
	}
	if err := send(encodeStreamCreate(g.id, g.threads, g.base), "create"); err != nil {
		return err
	}
	sp, seq := g.base, 0
	for _, op := range g.ops {
		var err error
		if op.advance {
			k := advanceLayers(sp, op.t)
			sp.OT += k
			err = send(encodeAdvance(g.id, k), "advance")
		} else if batch := share(op.pts, seq, g.ranks(), rank); len(batch) > 0 {
			err = send(encodeIngest(g.id, batch), "ingest")
		}
		if err != nil {
			return err
		}
		seq += len(op.pts)
	}
	g.seeded[rank] = epoch
	return nil
}

// Spec returns the current window spec (OT reflects every advance).
func (g *StreamGroup) Spec() grid.Spec {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.spec
}

// Window returns the continuous time range [t0, t1) the window covers.
func (g *StreamGroup) Window() (t0, t1 float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	sp := g.spec
	t0 = sp.Domain.T0 + float64(sp.OT)*sp.TRes
	return t0, t0 + float64(sp.Gt)*sp.TRes
}

// N returns the number of live events in the window.
func (g *StreamGroup) N() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// Stats reports the coordinator's work counters.
func (g *StreamGroup) Stats() StreamStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Live returns a copy of the live events in ingest order, derived from the
// mutation log: every event whose expiry offset lies past the current
// frame, plus every event ingested since the last effective advance (a
// late event stays live until an advance expires it, as in the Updater).
// It is O(events logged), for listings and non-window fallbacks only.
func (g *StreamGroup) Live() []grid.Point {
	g.mu.Lock()
	defer g.mu.Unlock()
	pts := make([]grid.Point, 0, g.n)
	for i, op := range g.ops {
		for _, p := range op.pts {
			if i >= g.lastAdv || expiryOT(g.spec, p.T) > g.spec.OT {
				pts = append(pts, p)
			}
		}
	}
	return pts
}

// policyErr is the error a read must surface: the first per-rank failure
// under GatherFailFast, nil under GatherPartial.
func (g *StreamGroup) policyErr(errs []error) error {
	if g.c.policy != GatherFailFast {
		return nil
	}
	return firstErr(errs)
}

// At returns the normalized density at window voxel (X, Y, T); see AtCov.
// Degradation handling follows the cluster's gather policy.
func (g *StreamGroup) At(X, Y, T int) (float64, error) {
	v, _, err := g.AtCov(X, Y, T)
	return v, err
}

// AtCov returns the normalized density at window voxel (X, Y, T): every
// live rank's raw value at the voxel, summed in rank order and normalized
// by the global live count, plus the coverage that produced it. Under
// GatherPartial a down rank only thins the value (coverage says so); under
// GatherFailFast it fails the read with the rank's attributed error.
func (g *StreamGroup) AtCov(X, Y, T int) (float64, Coverage, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case g.released:
		return 0, Coverage{}, errReleased
	case !inWindow(g.spec, voxel{X, Y, T}):
		return 0, Coverage{}, fmt.Errorf("dist: voxel (%d,%d,%d) outside the window", X, Y, T)
	case g.n == 0:
		return 0, g.coverage(), nil
	}
	want := make([][]voxel, g.ranks())
	for i := range want {
		want[i] = []voxel{{X, Y, T}}
	}
	vals, errs := g.fetch(want)
	total := 0.0
	for i, v := range vals {
		if errs[i] == nil {
			total += v[0]
		}
	}
	return total / float64(g.n), answered(errs), g.policyErr(errs)
}

// fetch reads the raw values at want[i] from every seeded rank i, with one
// batched message per rank. A rank with nothing to fetch is not called.
func (g *StreamGroup) fetch(want [][]voxel) ([][]float64, []error) {
	vals := make([][]float64, g.ranks())
	errs := g.call("query", func(i int) []byte {
		if len(want[i]) == 0 {
			return nil
		}
		return encodeFetch(g.id, want[i])
	}, func(i int, reply []byte) (err error) {
		vals[i], err = decodeFetchAns(reply)
		if err == nil && len(vals[i]) != len(want[i]) {
			err = fmt.Errorf("fetch answered %d values, want %d", len(vals[i]), len(want[i]))
		}
		return err
	})
	for i := range vals {
		if errs[i] == nil {
			g.stats.VoxelsFetched += int64(len(vals[i]))
		}
	}
	return vals, errs
}

// BoxMass integrates the normalized window density over a logical voxel
// box; see BoxMassCov. Degradation handling follows the cluster's gather
// policy: under GatherPartial a reduced-coverage answer returns nil error.
func (g *StreamGroup) BoxMass(b grid.Box) (float64, error) {
	v, _, err := g.BoxMassCov(b)
	return v, err
}

// BoxMassCov integrates the normalized window density over a logical voxel
// box: every live rank answers the raw sum of its subdensity over the box
// from its incremental sketch, and the partials are combined in rank order
// (deterministic summation) before the single global normalization. The
// returned Coverage counts the ranks that contributed; under GatherPartial
// a down rank only thins the answer, under GatherFailFast it fails it.
func (g *StreamGroup) BoxMassCov(b grid.Box) (float64, Coverage, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		return 0, Coverage{}, errReleased
	}
	sp := g.spec
	b = b.Clip(sp.Bounds())
	if g.n == 0 || b.Empty() {
		return 0, g.coverage(), nil
	}
	sums := make([]float64, g.ranks())
	errs := g.call("query", func(int) []byte {
		return encodeRegion(g.id, b)
	}, func(i int, reply []byte) (err error) {
		sums[i], g.rebuilds[i], err = decodeSum(reply)
		return err
	})
	total := 0.0
	for i, v := range sums {
		if errs[i] == nil {
			total += v
		}
	}
	return total / float64(g.n) * sp.SRes * sp.SRes * sp.TRes, answered(errs), g.policyErr(errs)
}

// TopK returns the k highest-density voxels of the merged window; see
// TopKCov. Degradation handling follows the cluster's gather policy.
func (g *StreamGroup) TopK(k int) ([]grid.VoxelDensity, error) {
	cands, _, err := g.TopKCov(k)
	return cands, err
}

// candidate is one voxel of a threshold gather: each rank's raw value at
// it, and whether the coordinator has that value yet.
type candidate struct {
	v     voxel
	raw   []float64
	known []bool
}

// TopKCov returns the k highest-density voxels of the merged window plus
// the coverage that produced them, by Fagin's threshold algorithm. Each
// round, every live rank returns its raw top-m from its sketch; the
// coordinator fetches, in one batched message per rank, the exact raw
// values each rank did not list for the union of the candidates, and sums
// them in rank order. A voxel no rank listed totals at most τ, the sum of
// the ranks' m-th values, so the read stops when the k-th total is
// strictly greater than τ, when τ is 0 (every unseen voxel is then an
// exact zero, tied with the k-th at worst), or when m covers the window;
// otherwise m doubles. m starts at 2k: ranks that rank the voxels alike —
// one rank always does — make the k-th total exactly τ at m = k, so a
// first round there would almost never stop. Totals are normalized once by
// the global live count. Under GatherPartial a rank that fails any call is
// left out of every total (coverage says so); GatherFailFast fails
// instead.
func (g *StreamGroup) TopKCov(k int) ([]grid.VoxelDensity, Coverage, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		return nil, Coverage{}, errReleased
	}
	if k <= 0 {
		return nil, g.coverage(), nil
	}
	sp, r := g.spec, g.ranks()
	k = min(k, sp.Voxels())
	// failed[i] is the error that dropped rank i from this read. The
	// candidates keep the order the ranks first listed them in, so every
	// fetch message is a deterministic function of the window.
	failed := make([]error, r)
	drop := func(errs []error) error {
		for i, err := range errs {
			if err != nil {
				failed[i] = err
			}
		}
		return g.policyErr(failed)
	}
	cands := make(map[voxel]*candidate)
	var order []*candidate
	var top []grid.VoxelDensity
	for m := min(2*k, sp.Voxels()); ; m = min(2*m, sp.Voxels()) {
		g.stats.TopKRounds++
		lists := make([][]grid.VoxelDensity, r)
		errs := g.call("query", func(i int) []byte {
			if failed[i] != nil {
				return nil
			}
			return encodeTopK(g.id, m, 1)
		}, func(i int, reply []byte) (err error) {
			g.rebuilds[i], lists[i], err = decodeTopKAns(reply)
			if err == nil && len(lists[i]) != m {
				err = fmt.Errorf("top-k answered %d voxels, want %d", len(lists[i]), m)
			}
			return err
		})
		if err := drop(errs); err != nil {
			return nil, answered(failed), err
		}
		tau := 0.0
		for i, list := range lists {
			if failed[i] != nil {
				continue
			}
			tau += list[m-1].V
			for _, vd := range list {
				v := voxel{vd.X, vd.Y, vd.T}
				c := cands[v]
				if c == nil {
					c = &candidate{v: v, raw: make([]float64, r), known: make([]bool, r)}
					cands[v] = c
					order = append(order, c)
				}
				c.raw[i], c.known[i] = vd.V, true
			}
		}
		want := make([][]voxel, r)
		for _, c := range order {
			for i, ok := range c.known {
				if !ok && failed[i] == nil {
					want[i] = append(want[i], c.v)
				}
			}
		}
		got, errs := g.fetch(want)
		if err := drop(errs); err != nil {
			return nil, answered(failed), err
		}
		for i, vs := range want {
			for j, v := range vs {
				if failed[i] == nil {
					cands[v].raw[i], cands[v].known[i] = got[i][j], true
				}
			}
		}
		totals := make([]grid.VoxelDensity, len(order))
		for j, c := range order {
			totals[j] = grid.VoxelDensity{X: c.v.X, Y: c.v.Y, T: c.v.T}
			for i, v := range c.raw {
				if failed[i] == nil {
					totals[j].V += v
				}
			}
		}
		top = grid.MergeTopK(sp, k, totals)
		if len(top) < k || top[k-1].V > tau || tau == 0 || m == sp.Voxels() {
			break
		}
	}
	cov := answered(failed)
	if cov.Live == 0 {
		return nil, cov, nil
	}
	scale := 0.0 // an empty window is exactly zero, like Snapshot
	if g.n > 0 {
		scale = 1 / float64(g.n)
	}
	for i := range top {
		top[i].V *= scale
	}
	return top, cov, nil
}

// Snapshot gathers every rank's raw window, sums them in rank order and
// normalizes once by the global live count — the O(G) baseline the
// sketch-merging queries above exist to avoid. A snapshot needs every
// rank's share of the events, so any down rank fails it with an attributed
// RankError whatever the gather policy.
func (g *StreamGroup) Snapshot(b *grid.Budget) (*grid.Grid, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		return nil, errReleased
	}
	sp := g.spec
	datas := make([][]float64, g.ranks())
	errs := g.call("snapshot", func(int) []byte {
		return encodeSnapshot(g.id)
	}, func(i int, reply []byte) (err error) {
		_, _, datas[i], err = decodeGather(reply)
		if err == nil && len(datas[i]) != sp.Voxels() {
			err = fmt.Errorf("window grid has %d voxels, want %d", len(datas[i]), sp.Voxels())
		}
		return err
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	out, err := grid.NewGrid(sp, b)
	if err != nil {
		return nil, err
	}
	copy(out.Data, datas[0])
	for _, data := range datas[1:] {
		for i, v := range data {
			out.Data[i] += v
		}
	}
	if g.n > 0 {
		inv := 1 / float64(g.n)
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
