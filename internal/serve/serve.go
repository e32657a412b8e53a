// Package serve is the density-serving subsystem behind cmd/stkded: a
// long-running HTTP service that turns the library's batch estimators into
// an interactive query backend, the "space-time cube analysis" consumer the
// paper's introduction sketches.
//
// The subsystem has four layers:
//
//   - a dataset registry that ingests event sets through the CSV codec and
//     content-addresses them by hash, so identical uploads deduplicate and
//     every request names its data immutably — plus mutable *stream*
//     datasets (POST /v1/streams) whose events arrive over time
//     (POST /v1/datasets/{id}/events) and whose sliding window density is
//     maintained in place by a core.Updater, with window advances
//     (POST /v1/datasets/{id}/advance) and exact invalidation of every
//     cache derived from the mutated dataset;
//   - a grid cache keyed by (dataset, Spec, algorithm) with LRU eviction
//     accounted against a grid.Budget, so repeated requests for the same
//     density cube are O(1) lookups instead of re-estimations;
//   - request coalescing (singleflight) plus a bounded estimation pool
//     behind a multi-tenant admission controller, so a thundering herd of
//     identical requests computes exactly once while distinct requests
//     saturate the cores — and overload is priced at the door with the
//     paper's Section 6.5 model: requests whose predicted wait exceeds the
//     latency SLO are shed with 429 + Retry-After, per-tenant sliding-window
//     rate limits cap abusive clients, and a weighted-fair queue keeps one
//     tenant's burst from starving the rest;
//   - JSON HTTP endpoints for ingestion, asynchronous estimation with job
//     polling, voxel queries (cached-grid lookup with an exact
//     core.Query.At fallback), box aggregates, and top-k hotspots, plus
//     expvar-style metrics and graceful shutdown that drains in-flight
//     estimations.
//
// With Config.Shard set, stream events are dealt across a rank cluster
// (repro/internal/dist), every rank holding the whole window, and the
// server degrades instead of breaking when a rank dies: point, region and
// hotspot answers sum the live ranks' shares and carry
// "coverage"/"degraded" fields (ShardConfig.Policy selects failing fast
// with 503 + Retry-After and the attributed rank instead), mutations
// commit on the coordinator and live ranks and report the same flags,
// /healthz gains a per-rank "shard" health section, and a reconnecting
// rank is re-seeded by replay. Sharded streams journal through Config.WAL like local ones
// (minus snapshots), so a coordinator restart rebuilds them by replaying
// the journal through the cluster.
//
// Only the standard library is used.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/model"
)

// Config configures a Server. The zero value is valid: 256 MiB of grid
// cache, GOMAXPROCS concurrent estimations with one thread each (throughput
// mode), pb-sym as the default algorithm.
type Config struct {
	// CacheBytes bounds the grid cache (default 256 MiB). Grids larger
	// than the whole budget are computed but not cached.
	CacheBytes int64

	// Workers bounds the number of concurrent estimations (default
	// GOMAXPROCS). Further estimations queue on the pool.
	Workers int

	// Threads is the thread count passed to each batch estimation
	// (default 1: with Workers parallel estimations the cores are
	// saturated by concurrency; raise it for latency-sensitive
	// single-tenant use). It does not apply to live streams, which ingest
	// on every core of the process holding the window.
	Threads int

	// DefaultAlgorithm is used when a request does not name one (default
	// pb-sym, the paper's sequential winner).
	DefaultAlgorithm string

	// MaxBodyBytes bounds request bodies, notably CSV uploads (default
	// 256 MiB).
	MaxBodyBytes int64

	// MaxGridBytes bounds the density grid a single request may derive
	// (default 1 GiB). Requests whose spec exceeds it are rejected with
	// 400 instead of allocating unbounded memory in a shared daemon.
	MaxGridBytes int64

	// MaxStreams bounds the number of live stream datasets (default 16).
	// Each stream pins a window-sized grid against the cache budget for
	// its whole lifetime, so the cap keeps a client from turning the cache
	// into pinned rings.
	MaxStreams int

	// WAL, when non-nil, makes local streams durable: every mutation is
	// journaled under WAL.Dir before it is acknowledged, periodic
	// checkpoints bound recovery, and Server.Recover rebuilds the streams
	// after a crash. Sharded streams are not journaled here.
	WAL *WALConfig

	// Shard, when non-nil with peers, backs every live stream with the
	// named rank cluster instead of a local window ring: events are dealt
	// round-robin to the ranks, each holding the whole window, and
	// point/region/hotspot queries sum the ranks' raw partials — O(1)
	// values per rank, and a threshold top-k gather of a few candidate
	// lists, on the wire instead of O(G) grids.
	Shard *ShardConfig

	// Admission configures the multi-tenant admission-control layer in
	// front of the estimation pool. Nil keeps the defaults: a bounded
	// context-aware queue (depth 1024), no latency SLO, no rate limits.
	Admission *AdmissionConfig
}

// AdmissionConfig prices and bounds work admission. Every work-admitting
// path — estimate jobs, sync region/hotspot estimations, stream
// ingest/advance, and the shard coordinator's stream mutations — goes
// through it.
type AdmissionConfig struct {
	// SLO, when positive, sheds requests whose model-predicted queue wait
	// exceeds it with 429 + a Retry-After derived from the prediction.
	SLO time.Duration

	// QueueDepth bounds the queued (admitted-but-waiting) requests across
	// all tenants (default 1024). Past it, requests are shed with 429.
	QueueDepth int

	// TenantRates are multi-interval sliding-window rate limits applied
	// per tenant (keyed by the X-Tenant header, "default" otherwise),
	// e.g. {100, time.Second} + {2000, time.Minute} evaluated together.
	// Nil disables rate limiting.
	TenantRates []RateWindow

	// TenantWeights optionally biases the fair dequeue: a tenant with
	// weight w receives w grants per round-robin cycle (default 1).
	TenantWeights map[string]int

	// Machine supplies the pricing rates. Nil runs model.Calibrate at
	// server start when SLO is set (tens of milliseconds of
	// micro-benchmarks), and uses model.DefaultMachine otherwise.
	Machine *model.Machine
}

// ShardConfig names the rank cluster a Server shards live streams across.
type ShardConfig struct {
	// Peers are the rank endpoint addresses, in rank order: "host:port"
	// for TCP ranks or "inproc://name" for ranks hosted in this process.
	Peers []string

	// Network supplies the transports (default dist.NewNetwork()). Pass
	// the network the in-process ranks listen on when using inproc peers.
	Network *dist.Network

	// Timeouts bounds cluster dialing, per-RPC exchanges, and heartbeat
	// pings. Zero fields take the dist defaults (5s / 30s / 1s).
	Timeouts dist.Timeouts

	// Policy selects how sharded analytics behave when a rank is down:
	// dist.GatherPartial (default) answers from the live ranks and
	// reports the reduced coverage; dist.GatherFailFast refuses degraded
	// answers with an attributed error.
	Policy dist.GatherPolicy

	// HeartbeatEvery is the background health-probe period: dead ranks
	// are detected, redialed and re-seeded without waiting for a request
	// to trip over them. Zero defaults to 1s; negative disables the
	// monitor (failures are still detected on the erroring call).
	HeartbeatEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.DefaultAlgorithm == "" {
		c.DefaultAlgorithm = core.AlgPBSYM
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.MaxGridBytes <= 0 {
		c.MaxGridBytes = 1 << 30
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 16
	}
	if c.Admission == nil {
		c.Admission = &AdmissionConfig{}
	}
	if c.Admission.QueueDepth <= 0 {
		ac := *c.Admission
		ac.QueueDepth = 1024
		c.Admission = &ac
	}
	return c
}

// estimateKey identifies one density cube: a dataset, a fully-derived
// problem spec, and the algorithm that computes it. Spec is comparable, so
// the key can index maps directly.
type estimateKey struct {
	Dataset   string
	Spec      grid.Spec
	Algorithm string
}

// id returns the stable job/grid identifier of the key.
func (k estimateKey) id() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%+v|%s", k.Dataset, k.Spec, k.Algorithm)))
	return "j" + hex.EncodeToString(h[:8])
}

// Server is the density-serving subsystem. It implements http.Handler;
// mount it directly or behind a mux. Create it with New.
type Server struct {
	cfg     Config
	reg     *registry
	cache   *gridCache
	streams *streamTable
	flight  *flightGroup
	adm     *admission    // estimation pool front door: bounded fair queue + shedding
	mach    model.Machine // calibrated rates pricing every admission
	jobs    *jobTable
	met     *metrics
	mux     *http.ServeMux
	start   time.Time

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup // in-flight estimation jobs, drained by Shutdown

	// Shard cluster, connected lazily on the first stream creation so a
	// daemon with unreachable peers still serves its batch endpoints.
	shardMu  sync.Mutex
	shardCl  *dist.Cluster
	shardErr error
	shardUp  bool // a connect was attempted (shardCl/shardErr are final)

	// testHookEstimate, when non-nil, runs at the start of every actual
	// estimation (after coalescing and pool admission). Tests use it to
	// hold an estimation in flight deterministically.
	testHookEstimate func(k estimateKey)
}

// New creates a Server with the given configuration. When an admission
// SLO is set without explicit machine rates, the pricing model is
// calibrated here (model.Calibrate, tens of milliseconds) so every
// prediction reflects the hardware actually serving.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     newRegistry(),
		cache:   newGridCache(cfg.CacheBytes),
		streams: newStreamTable(),
		flight:  newFlightGroup(),
		jobs:    newJobTable(),
		met:     newMetrics(),
		start:   time.Now(),
	}
	switch {
	case cfg.Admission.Machine != nil:
		s.mach = *cfg.Admission.Machine
	case cfg.Admission.SLO > 0:
		s.mach = model.Calibrate(cfg.Threads, 0)
	default:
		s.mach = model.DefaultMachine(cfg.Threads, 0)
	}
	s.adm = newAdmission(*cfg.Admission, cfg.Workers, s.met)
	s.met.publishAdmission(s.adm)
	s.met.publishStreams(s.streams)
	s.mux = s.routes()
	return s
}

// predictCost prices one estimation request in predicted wall seconds
// using the calibrated machine model — the O(1) Section 6.5 prediction
// (no per-cell loads), so it is cheap enough to run at the door of every
// request.
func (s *Server) predictCost(k estimateKey) float64 {
	n := 0
	if ds, ok := s.reg.get(k.Dataset); ok {
		n = ds.size()
	}
	return s.mach.EstimateSeconds(k.Spec, n, k.Algorithm, s.cfg.Threads)
}

// ServeHTTP dispatches to the subsystem's endpoints, tracking in-flight
// requests and request latency for the metrics endpoint.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.met.inflight.Add(1)
	defer func() {
		s.met.inflight.Add(-1)
		s.met.latency.Observe(time.Since(t0))
	}()
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// AddDataset registers an event set directly (the programmatic equivalent
// of POST /v1/datasets, used by cmd/stkded's -preload). It returns the
// content-addressed dataset id.
func (s *Server) AddDataset(pts []grid.Point) (string, error) {
	if len(pts) == 0 {
		return "", fmt.Errorf("serve: dataset has no events")
	}
	ds, _ := s.addDataset(pts)
	return ds.id, nil
}

// addDataset is the single ingestion path shared by AddDataset and the
// HTTP handler: register and account the dataset metric.
func (s *Server) addDataset(pts []grid.Point) (*dataset, bool) {
	ds, created := s.reg.add(pts)
	if created {
		s.met.datasets.Add(1)
	}
	return ds, created
}

// shardCluster returns the connected rank cluster, dialing the configured
// peers on first use. It returns (nil, nil) when no shard peers are
// configured; a failed connect is sticky, so every stream creation reports
// the same dial error instead of re-dialing dead peers.
func (s *Server) shardCluster() (*dist.Cluster, error) {
	if s.cfg.Shard == nil || len(s.cfg.Shard.Peers) == 0 {
		return nil, nil
	}
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	if !s.shardUp {
		s.shardUp = true
		n := s.cfg.Shard.Network
		if n == nil {
			n = dist.NewNetwork()
		}
		every := s.cfg.Shard.HeartbeatEvery
		switch {
		case every == 0:
			every = time.Second
		case every < 0:
			every = 0 // monitor disabled
		}
		s.shardCl, s.shardErr = dist.ConnectCluster(n, s.cfg.Shard.Peers, dist.ClusterOptions{
			Timeouts:       s.cfg.Shard.Timeouts,
			Policy:         s.cfg.Shard.Policy,
			HeartbeatEvery: every,
		})
		if s.shardErr == nil {
			s.met.publishShard(s.shardCl)
		}
	}
	return s.shardCl, s.shardErr
}

// Shutdown stops accepting new estimation jobs and waits for in-flight
// jobs to complete (so their grids land in the cache) or for the context
// to expire, takes a final checkpoint of every journaled stream (so the
// next boot replays nothing) and closes the journals, then severs the
// shard cluster connections if any were made. The HTTP listener itself
// is the caller's to drain (see http.Server.Shutdown in cmd/stkded).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("serve: shutdown deadline exceeded with estimations in flight")
	}
	s.closeJournals()
	s.shardMu.Lock()
	s.shardUp = true // no reconnects after shutdown
	if s.shardCl != nil {
		s.shardCl.Close()
		s.shardCl, s.shardErr = nil, errShuttingDown
	}
	s.shardMu.Unlock()
	return err
}

// Estimations returns the number of actual estimation runs performed (the
// coalescing counter: identical concurrent requests increment it once).
func (s *Server) Estimations() int64 { return s.met.estimations.Value() }

// CacheStats reports the grid cache occupancy: resident grids, bytes
// charged, and the configured byte budget.
func (s *Server) CacheStats() (entries int, bytes, limit int64) {
	return s.cache.stats()
}

// errShuttingDown rejects new estimation work once Shutdown has begun.
var errShuttingDown = fmt.Errorf("serve: shutting down, not accepting new estimations")

// ensureGrid returns the cached density grid for the key, computing (and
// caching) it if absent. Concurrent calls for the same key coalesce into a
// single estimation; distinct keys run concurrently, bounded by the
// estimation pool behind the admission queue: the caller waits fairly
// with its tenant's peers, leaves the queue the moment ctx is cancelled,
// and (on the synchronous paths) is shed with a priced Retry-After when
// the predicted wait exceeds the SLO. Callers not already admitted to the
// drain group by startJob (the synchronous region/hotspot paths) pass
// preAdmitted=false: they are refused once Shutdown has begun, waited for
// by it otherwise, and subject to door shedding.
func (s *Server) ensureGrid(ctx context.Context, k estimateKey, tenant string, preAdmitted bool) (*core.Result, bool, error) {
	if g, ok := s.cache.get(k); ok {
		s.met.cacheHits.Add(1)
		return resultFromGrid(k, g), true, nil
	}
	s.met.cacheMisses.Add(1)
	if !preAdmitted {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, false, errShuttingDown
		}
		s.wg.Add(1)
		s.mu.Unlock()
		defer s.wg.Done()
	}
	res, err := s.flight.do(ctx, k, func() (*core.Result, error) {
		// A concurrent caller may have populated the cache between our
		// miss and the flight admission.
		if g, ok := s.cache.get(k); ok {
			return resultFromGrid(k, g), nil
		}
		release, err := s.adm.acquire(ctx, tenant, s.predictCost(k), !preAdmitted)
		if err != nil {
			return nil, err
		}
		defer release()
		if s.testHookEstimate != nil {
			s.testHookEstimate(k)
		}
		ds, ok := s.reg.get(k.Dataset)
		if !ok {
			return nil, fmt.Errorf("serve: unknown dataset %q", k.Dataset)
		}
		// Stream datasets go through the mutation-ordered path: the live
		// window is snapshotted (no estimation) and caching is version-
		// checked against concurrent ingests.
		if st, ok := s.streams.get(k.Dataset); ok {
			return s.streamResult(st, k)
		}
		s.met.estimations.Add(1)
		s.met.estInflight.Add(1)
		defer s.met.estInflight.Add(-1)
		res, err := core.Estimate(k.Algorithm, ds.points(), k.Spec, core.Options{Threads: s.cfg.Threads})
		if err != nil {
			return nil, err
		}
		// Cache only while the dataset is still registered: a stream
		// deleted mid-estimation must not leave an orphaned entry keyed
		// to an id no request can ever resolve again (deleteStream
		// re-invalidates after deregistering to close the remaining gap).
		if _, ok := s.reg.get(k.Dataset); ok {
			s.cachePut(k, res.Grid)
		}
		return res, nil
	})
	if err != nil {
		return nil, false, err
	}
	return res, false, nil
}

// charge runs alloc, an allocation charged to the cache budget, and on
// grid.ErrMemoryBudget evicts least-recently-used cached grids — never the
// entry keyed except — to make room for need bytes, then retries. A
// concurrent cache fill can steal freed room between the eviction and the
// retry, so it retries for as long as eviction frees something: it ends
// with alloc done, a different error, or nothing left to evict. Every
// budgeted allocator checks the budget before it allocates, so a failed
// attempt costs nothing.
func (s *Server) charge(need int64, except estimateKey, alloc func() error) error {
	for {
		err := alloc()
		if !errors.Is(err, grid.ErrMemoryBudget) {
			return err
		}
		evicted := s.cache.evictFor(need, except)
		s.met.evictions.Add(int64(evicted))
		if evicted == 0 {
			return err
		}
	}
}

// ensurePyramid returns the analytics pyramid (summed-volume table +
// block maxima) for a resident grid, building it outside the cache lock
// when absent. The build is charged to the cache budget — evicting LRU
// grids to make room, exactly like a stream ring — and published onto the
// grid's cache entry presence-checked: if the entry was invalidated or
// evicted during the build, the pyramid stays private to this request and
// the returned cleanup releases it. The error is a budget failure the
// callers answer by falling back to the naive O(G) scans.
func (s *Server) ensurePyramid(k estimateKey, g *grid.Grid) (*grid.Pyramid, func(), error) {
	noop := func() {}
	if py, ok := s.cache.getPyramid(k); ok {
		return py, noop, nil
	}
	bytes := grid.PyramidBytes(g.Spec)
	// Feasibility first: the pyramid and the grid it indexes must be able
	// to coexist in the evictable share of the budget, or the build would
	// either evict its own grid or flush residents for nothing (the same
	// doomed-request principle createStream applies to stream rings).
	if limit := s.cache.budgetHandle().Limit(); limit > 0 {
		if bytes+g.Spec.Bytes()+s.cache.pinnedBytes() > limit {
			return nil, noop, fmt.Errorf("serve: %w: pyramid needs %d bytes next to its %d-byte grid",
				grid.ErrMemoryBudget, bytes, g.Spec.Bytes())
		}
	}
	var py *grid.Pyramid
	if err := s.charge(bytes, k, func() (err error) {
		py, err = grid.NewPyramid(g, s.cfg.Threads, s.cache.budgetHandle())
		return err
	}); err != nil {
		return nil, noop, err
	}
	s.met.sketchRebuilds.Add(1)
	adopted, existing := s.cache.attachPyramid(k, py)
	if adopted {
		return py, noop, nil
	}
	if existing != nil { // a racing builder won; serve from its pyramid
		py.Release()
		return existing, noop, nil
	}
	// The entry vanished mid-build (eviction or stream invalidation): use
	// the pyramid for this answer only, then return its charge.
	return py, py.Release, nil
}

// cachePut inserts a computed grid, folding in the eviction and
// uncacheable accounting every fill path shares.
func (s *Server) cachePut(k estimateKey, g *grid.Grid) {
	evicted, cached := s.cache.put(k, g)
	s.met.evictions.Add(int64(evicted))
	if !cached {
		s.met.uncacheable.Add(1)
	}
}

// resultFromGrid wraps a cache hit in the Result shape the job and
// response paths share; phase timings are zero because nothing ran.
func resultFromGrid(k estimateKey, g *grid.Grid) *core.Result {
	return &core.Result{Algorithm: k.Algorithm, Grid: g}
}
