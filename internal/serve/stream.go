package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/wal"
)

// liveWindow is the sliding-window estimator behind a stream: either a
// local core.Updater ring, or a dist.StreamGroup sharding the window
// across a rank cluster when the server was configured with shard peers.
// The two expose one contract, so every stream operation — ingest,
// advance, voxel reads, sketch analytics, snapshots — is written once.
// Every read reports the coverage that produced it: how many of the
// window's ranks contributed, always one of one for a local window.
type liveWindow interface {
	Spec() grid.Spec
	Window() (t0, t1 float64)
	N() int
	Live() []grid.Point
	Add(pts ...grid.Point) error
	AdvanceTo(t float64) (advanced, expired int, err error)
	AtCov(X, Y, T int) (float64, dist.Coverage, error)
	BoxMassCov(b grid.Box) (float64, dist.Coverage, error)
	TopKCov(k int) ([]grid.VoxelDensity, dist.Coverage, error)
	Snapshot(b *grid.Budget) (*grid.Grid, error)
	SketchRebuilds() int64
	Release()
}

// fullCoverage is the coverage of a window that lives entirely in this
// process: one of one.
var fullCoverage = dist.Coverage{Live: 1, Total: 1}

// localWindow adapts *core.Updater — whose mutators cannot fail — to the
// liveWindow contract.
type localWindow struct{ *core.Updater }

func (w localWindow) Add(pts ...grid.Point) error {
	w.Updater.Add(pts...)
	return nil
}

func (w localWindow) AdvanceTo(t float64) (advanced, expired int, err error) {
	advanced, expired = w.Updater.AdvanceTo(t)
	return advanced, expired, nil
}

func (w localWindow) AtCov(X, Y, T int) (float64, dist.Coverage, error) {
	return w.Updater.At(X, Y, T), fullCoverage, nil
}

func (w localWindow) BoxMassCov(b grid.Box) (float64, dist.Coverage, error) {
	mass, err := w.Updater.BoxMass(b)
	return mass, fullCoverage, err
}

func (w localWindow) TopKCov(k int) ([]grid.VoxelDensity, dist.Coverage, error) {
	top, err := w.Updater.TopK(k)
	return top, fullCoverage, err
}

// stream is one mutable (live-ingest) dataset: a registry entry whose
// event set grows by POST /v1/datasets/{id}/events, paired with a
// long-lived window estimator that keeps the window density grid exact in
// place — O(Δn·Hs²·Ht) per ingest instead of a full re-estimate. A local
// window's ring is charged against the server's cache budget, so live
// windows and cached cubes compete in one accounted pool; a sharded
// window's rings live in the rank processes, so nothing is charged here.
//
// st.mu serializes mutations (ingest, advance) with version-checked cache
// fills: a mutation invalidates the dataset's cached grids and query
// indexes while holding the lock, and a fill re-checks the dataset version
// under the same lock before publishing, so a stale cube can never outlive
// the mutation that obsoleted it.
type stream struct {
	id      string
	ds      *dataset
	base    grid.Spec // creation spec (OT == 0); requests resolve against it
	sharded bool      // window lives on the rank cluster, not in this process

	// jr is the stream's durability journal (nil without a WAL config).
	// Sharded streams journal too — the coordinator's mutation record is
	// what rebuilds rank replicas on reconnect and re-creates the cluster
	// state after a coordinator restart — but never checkpoint: the
	// window ring lives in the rank processes, so there is no local state
	// to snapshot. Immutable after registerStream.
	jr *streamJournal

	mu      sync.Mutex
	up      liveWindow
	deleted bool // set by deleteStream; every mutation checks it under mu
}

// windowSpec maps a request spec onto the live window: when the request
// matches the stream's creation spec (requests always carry OT == 0), the
// current window sub-spec — whose OT has followed every advance — is
// substituted, so clients keep using the creation parameters while the
// window slides.
func (st *stream) windowSpec(req grid.Spec) (grid.Spec, bool) {
	if req != st.base {
		return grid.Spec{}, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.deleted {
		return grid.Spec{}, false
	}
	return st.up.Spec(), true
}

// readWindow runs one read on a stream's live window under st.mu, the lock
// every mutation holds, so the answer is exactly consistent with the events
// ingested so far — provided spec still names the window's current
// position. It is the one locked read behind /v1/query, /v1/region and
// /v1/hotspots, and reports the coverage of the read and the sketch blocks
// it rebuilt. A sketch read (region, hotspots) is also timed as a shard
// gather. Under the partial gather policy a down rank only lowers the
// coverage.
//
// A nil answer with a nil error means the stream cannot answer and the
// caller falls back: the stream is gone, the window moved, the read itself
// declined, or a local ring sketch does not fit the cache budget even with
// every evictable cached cube evicted. A sharded window's error is
// returned, for the caller to surface: the fallbacks would answer from the
// coordinator's live list as if coverage were full.
func (s *Server) readWindow(st *stream, spec grid.Spec, sketch bool, read func(liveWindow) (map[string]any, dist.Coverage, error)) (answer map[string]any, cov dist.Coverage, rebuilt int64, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.deleted || spec != st.up.Spec() {
		return nil, cov, 0, nil
	}
	if sketch {
		defer s.observeShardGather(st)()
	}
	before := st.up.SketchRebuilds()
	run := func() error {
		answer, cov, err = read(st.up)
		return err
	}
	if st.sharded {
		err = run()
	} else { // a local ring's lazy sketch is charged to the cache budget
		err = s.charge(grid.RingSketchBytes(spec), estimateKey{}, run)
	}
	switch {
	case err == nil:
		return answer, cov, st.up.SketchRebuilds() - before, nil
	case st.sharded:
		return nil, cov, 0, err
	default: // a local ring sketch that does not fit even after eviction
		return nil, cov, 0, nil
	}
}

// observeShardGather times one cross-shard gather (a sketch merge or a
// snapshot) for the shard metrics, returning a no-op for local streams so
// call sites need no branching.
func (s *Server) observeShardGather(st *stream) func() {
	if !st.sharded {
		return func() {}
	}
	t0 := time.Now()
	return func() {
		s.met.shardGathers.Add(1)
		s.met.shardLatency.Observe(time.Since(t0))
	}
}

// window returns the continuous time range the live window covers — the
// last known range once the stream is deleted (Updater.Window reads only
// the spec, which survives Release, so a response racing a DELETE still
// reports the real range).
func (st *stream) window() (t0, t1 float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.up.Window()
}

// streamTable holds the server's live streams.
type streamTable struct {
	mu  sync.Mutex
	m   map[string]*stream
	seq atomic.Int64

	// createMu serializes whole stream creations, making the MaxStreams
	// check-then-create atomic without holding mu across the ring
	// allocation (lookups stay uncontended).
	createMu sync.Mutex
}

func newStreamTable() *streamTable {
	return &streamTable{m: map[string]*stream{}}
}

// nextID allocates a stream id. Stream datasets are mutable, so their ids
// are sequence-allocated, not content-addressed.
func (t *streamTable) nextID() string {
	return fmt.Sprintf("s%016x", t.seq.Add(1))
}

func (t *streamTable) get(id string) (*stream, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.m[id]
	return st, ok
}

func (t *streamTable) put(st *stream) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[st.id] = st
}

func (t *streamTable) remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.m, id)
}

func (t *streamTable) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// pinnedBytes is the byte total of all live windows (their rings, hidden
// layers included)
// held in this process (their specs never resize, so the creation spec's
// size is exact). Sharded windows keep theirs in the rank processes and
// are not counted.
func (t *streamTable) pinnedBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for _, st := range t.m {
		if st.sharded {
			continue
		}
		sum += core.WindowBytes(st.base)
	}
	return sum
}

// list returns the streams in id order.
func (t *streamTable) list() []*stream {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*stream, 0, len(t.m))
	for _, st := range t.m {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// createStream registers a new live stream on the given window spec. With
// shard peers configured the window is carved across the rank cluster
// (nothing charged locally); otherwise the window ring is charged to the
// cache budget (evicting cached cubes to make room), and creation fails
// with grid.ErrMemoryBudget when the pinned stream share would exceed half
// the budget.
func (s *Server) createStream(spec grid.Spec) (*stream, error) {
	s.streams.createMu.Lock()
	defer s.streams.createMu.Unlock()
	if n := s.streams.count(); n >= s.cfg.MaxStreams {
		return nil, fmt.Errorf("serve: %d live streams already registered (limit %d); raise MaxStreams", n, s.cfg.MaxStreams)
	}
	cl, err := s.shardCluster()
	if err != nil {
		return nil, err
	}
	// Stream rings are pinned for the server's lifetime, so cap their
	// total share at half the cache budget: one oversized window must
	// never permanently crowd every cached cube out of the LRU (and a
	// doomed request must be rejected before eviction flushes residents
	// for nothing).
	if limit := s.cache.budgetHandle().Limit(); cl == nil && limit > 0 {
		need := core.WindowBytes(spec)
		if pinned := s.streams.pinnedBytes(); pinned+need > limit/2 {
			return nil, fmt.Errorf("serve: %w: stream window needs %d bytes with %d already pinned, over half the %d-byte cache budget; coarsen the spec or raise CacheBytes",
				grid.ErrMemoryBudget, need, pinned, limit)
		}
	}
	up, err := s.newWindow(cl, spec, nil)
	if err != nil {
		return nil, err
	}
	id := s.streams.nextID()
	jr, err := s.openCreateJournal(id, spec)
	if err != nil {
		up.Release()
		return nil, err
	}
	return s.registerStream(id, up, spec, jr), nil
}

// newWindow builds a stream's window, for a new stream and a recovered
// one alike. It is sharded across cl when a cluster is configured and
// there is no snapshot to restore (sharded journals never checkpoint: the
// rings live in the rank processes). Otherwise it is a local updater,
// restored from snap or empty on spec, and its ring is charged to the
// cache budget, evicting cached cubes to make room.
func (s *Server) newWindow(cl *dist.Cluster, spec grid.Spec, snap *wal.Snapshot) (liveWindow, error) {
	if cl != nil && snap == nil {
		sg, err := cl.NewStream(spec, 0) // every rank ingests on all its cores
		if err != nil {
			return nil, err
		}
		return sg, nil
	}
	// Threads unset: a stream ingests on every core (Config.Threads sizes
	// batch estimations only).
	cfg := core.UpdaterConfig{Options: core.Options{Budget: s.cache.budgetHandle()}}
	if snap != nil {
		spec = snap.Grid.Spec
	}
	var up *core.Updater
	err := s.charge(core.WindowBytes(spec), estimateKey{}, func() (err error) {
		if snap != nil {
			up, err = core.RestoreUpdater(core.UpdaterState{
				Grid: snap.Grid, Live: snap.Live, Residual: snap.Residual, Ops: snap.Ops,
			}, cfg)
		} else {
			up, err = core.NewUpdater(spec, cfg)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return localWindow{up}, nil
}

// openCreateJournal journals a stream's creation before it becomes
// visible: the create record (always LSN 1) is what recovery cold-starts
// from when no snapshot has been written yet. Nil without a WAL config. A
// journal failure aborts the create — a stream that cannot be made
// durable must not accept events.
func (s *Server) openCreateJournal(id string, spec grid.Spec) (*streamJournal, error) {
	if s.cfg.WAL == nil {
		return nil, nil
	}
	jr, _, err := s.openJournal(id)
	if err == nil {
		if _, err = jr.log.Append(wal.Record{Kind: wal.KindCreate, Spec: spec}); err == nil {
			err = jr.log.Commit()
		}
		if err != nil {
			jr.log.Close()
			wal.Remove(jr.log.Dir())
		}
	}
	if err != nil {
		return nil, fmt.Errorf("serve: stream journal: %w", err)
	}
	s.met.walAppends.Add(1)
	return jr, nil
}

// registerStream binds a created window to the given stream id and a
// fresh registry entry. Callers hold createMu (or are Recover, which runs
// before any traffic).
func (s *Server) registerStream(id string, up liveWindow, spec grid.Spec, jr *streamJournal) *stream {
	_, local := up.(localWindow)
	st := &stream{id: id, ds: s.reg.addStream(id, up), base: spec, sharded: !local, jr: jr, up: up}
	s.streams.put(st)
	s.met.streams.Add(1)
	return st
}

// ingestChunk bounds how long st.mu is held during one ingest: a huge CSV
// is applied in chunks so concurrent window reads and spec resolutions
// stay responsive. Each chunk leaves a consistent events-so-far estimate.
const ingestChunk = 4096

// mutate runs one journaled mutation on a stream's window under one st.mu
// hold, so the journal orders records exactly like the window mutations:
// it refuses a deleted stream, journals rec, runs apply, and — when apply
// reports the window changed — bumps the dataset version and invalidates
// every derived cache (grids, exact-query indexes) under the stream lock.
// The commit barrier is the caller's, after the lock is released.
//
// On a sharded window a down rank surfaces as *dist.DegradedError: the
// mutation has committed on the coordinator (journal, live list, window
// clock) and every healthy rank, and the failed rank will be rebuilt by
// replay on reconnect — so it is a success at the reduced coverage
// returned, not an error.
func (s *Server) mutate(st *stream, rec wal.Record, apply func(liveWindow) (changed bool, err error)) (dist.Coverage, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.deleted {
		return fullCoverage, errStreamDeleted
	}
	if err := s.journalAppend(st, rec); err != nil {
		return fullCoverage, err
	}
	cov := fullCoverage
	changed, err := apply(st.up)
	if err != nil {
		var de *dist.DegradedError
		if !errors.As(err, &de) {
			return fullCoverage, err
		}
		cov = de.Coverage
		s.met.shardDegraded.Add(1)
	}
	if changed {
		st.ds.bump()
		s.invalidateStream(st)
	}
	return cov, nil
}

// streamIngest appends events to a live stream, one mutation per chunk;
// the window grid is updated in place through the signed-weight apply
// path. The commit barrier runs after the last chunk, before the caller
// acks. A degraded chunk reports its coverage: the client learns its
// events landed on cov.Live of cov.Total ranks.
func (s *Server) streamIngest(st *stream, pts []grid.Point) (total int, cov dist.Coverage, err error) {
	cov = fullCoverage
	for len(pts) > 0 {
		chunk := pts[:min(len(pts), ingestChunk)]
		pts = pts[len(chunk):]
		c, err := s.mutate(st, wal.Record{Kind: wal.KindIngest, Points: chunk}, func(w liveWindow) (bool, error) {
			err := w.Add(chunk...)
			total = w.N()
			return true, err
		})
		if err != nil {
			return total, cov, err
		}
		if c.Degraded() {
			cov = c
		}
		s.met.streamEvents.Add(int64(len(chunk)))
	}
	if err := s.journalCommit(st); err != nil {
		return total, cov, err
	}
	return total, cov, nil
}

// streamAdvance slides a stream's window forward to cover time t,
// expiring events the window left behind. No-op (without invalidation)
// when t is already covered; the advance is journaled either way —
// replaying a covered-time advance is itself a no-op, and the uniform
// record stream keeps the journal a faithful transcript of the calls.
// Like streamIngest, a sharded *dist.DegradedError is a committed success
// at reduced coverage.
func (s *Server) streamAdvance(st *stream, t float64) (advanced, expired int, cov dist.Coverage, err error) {
	cov, err = s.mutate(st, wal.Record{Kind: wal.KindAdvance, T: t}, func(w liveWindow) (bool, error) {
		var err error
		advanced, expired, err = w.AdvanceTo(t)
		return advanced > 0, err
	})
	if err != nil {
		return 0, 0, cov, err
	}
	if advanced > 0 {
		s.met.streamAdvances.Add(1)
	}
	if err := s.journalCommit(st); err != nil {
		return 0, 0, cov, err
	}
	return advanced, expired, cov, nil
}

// errStreamDeleted rejects operations racing a stream deletion.
var errStreamDeleted = fmt.Errorf("serve: stream has been deleted")

// deleteStream tears a live stream down: the window ring's budget charge
// is released, every derived cache is dropped, and both the stream slot
// and the registry entry are freed for reuse. In-flight operations that
// already hold the *stream pointer observe st.deleted under st.mu.
func (s *Server) deleteStream(st *stream) {
	st.mu.Lock()
	jr := st.jr
	if !st.deleted {
		st.deleted = true
		st.up.Release()
		s.invalidateStream(st)
		s.met.streams.Add(-1)
	} else {
		jr = nil // a racing delete already owns the journal teardown
	}
	st.mu.Unlock()
	if jr != nil {
		// snapMu waits out an in-flight checkpoint, so the close and
		// remove never race a snapshot write; the tombstone rename makes
		// the teardown crash-safe (recovery finishes it).
		jr.snapMu.Lock()
		jr.log.Close()
		wal.Remove(jr.log.Dir())
		jr.snapMu.Unlock()
	}
	s.streams.remove(st.id)
	s.reg.remove(st.id)
	// A racing fill may have published between the first invalidation and
	// the deregistration (its registry check passed earlier); now that no
	// request can resolve the id, drop whatever landed.
	s.met.invalidations.Add(int64(s.cache.invalidateDataset(st.id)))
}

// invalidateStream drops the dataset's cached grids and query indexes.
// Callers hold st.mu, which orders the invalidation against version-checked
// cache fills.
func (s *Server) invalidateStream(st *stream) {
	n := s.cache.invalidateDataset(st.id)
	n += s.reg.invalidateQueries(st.id)
	s.met.invalidations.Add(int64(n))
}

// streamResult computes the density cube of a stream dataset for the key.
// The stream's own window spec is served as an O(G) snapshot of the live
// ring (no estimation); any other spec falls back to a batch estimate over
// the current event snapshot. Either result is cached only if no mutation
// raced it, checked under the stream lock.
func (s *Server) streamResult(st *stream, k estimateKey) (*core.Result, error) {
	st.mu.Lock()
	if !st.deleted && k.Spec == st.up.Spec() {
		// Take the O(G) ring copy outside st.mu (it is point-in-time
		// consistent under the updater's own lock), so ingests and
		// window reads are not stalled for the materialization; publish
		// to the cache only if no mutation raced the copy.
		v := st.ds.ver()
		st.mu.Unlock()
		done := s.observeShardGather(st)
		g, err := st.up.Snapshot(nil)
		done()
		if err != nil {
			return nil, err
		}
		if g.Spec == k.Spec {
			s.met.streamSnapshots.Add(1)
			st.mu.Lock()
			if !st.deleted && st.ds.ver() == v {
				s.cachePut(k, g)
			}
			st.mu.Unlock()
			return resultFromGrid(k, g), nil
		}
		// An advance raced the copy: the snapshot is a different window
		// than the key asked for. Fall through to the batch path, which
		// answers the requested sub-spec over the current live events.
		st.mu.Lock()
	}
	pts := st.ds.points()
	v := st.ds.ver()
	st.mu.Unlock()

	s.met.estimations.Add(1)
	res, err := func() (*core.Result, error) {
		s.met.estInflight.Add(1)
		defer s.met.estInflight.Add(-1) // panic-safe, like ensureGrid's path
		return core.Estimate(k.Algorithm, pts, k.Spec, core.Options{Threads: s.cfg.Threads})
	}()
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.deleted && st.ds.ver() == v { // no mutation raced the estimation
		s.cachePut(k, res.Grid)
	}
	return res, nil
}
