// Package serve is the density-serving subsystem behind cmd/stkded: a
// long-running HTTP service that turns the library's batch estimators into
// an interactive query backend, the "space-time cube analysis" consumer the
// paper's introduction sketches.
//
// The subsystem has four layers:
//
//   - one dataset registry that ingests event sets through the CSV codec
//     and content-addresses them by hash, so identical uploads deduplicate
//     and every request names its data immutably — plus mutable *stream*
//     datasets (POST /v1/streams), registry entries that carry their live
//     window: their events arrive over time
//     (POST /v1/datasets/{id}/events), their sliding window density is
//     maintained in place by a core.Updater, and window advances
//     (POST /v1/datasets/{id}/advance) slide it; every mutation bumps the
//     dataset version, which names every cache entry derived from it;
//   - one cache keyed by (dataset, version, Spec, algorithm) with LRU
//     eviction accounted against one grid.Budget, which the stream window
//     rings are charged to as well: density cubes, each cached with the
//     analytics pyramid built with it, so repeated requests for the same
//     cube are O(1) lookups instead of re-estimations, and the exact-query
//     indexes (core.Query) behind /v1/query's fallback, keyed with the
//     algorithm cleared;
//   - request coalescing (singleflight) for every cache fill, plus a
//     bounded estimation pool behind a multi-tenant admission controller,
//     so a thundering herd of identical requests computes exactly once
//     while distinct requests saturate the cores — and overload is priced
//     at the door with the paper's Section 6.5 model: requests whose
//     predicted wait exceeds the latency SLO are shed with 429 +
//     Retry-After, per-tenant sliding-window rate limits cap abusive
//     clients, and a round-robin queue keeps one tenant's burst from
//     starving the rest;
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
// rank is re-seeded by replay. Sharded streams journal through Config.WAL
// like local ones (minus snapshots), so a coordinator restart rebuilds
// them by replaying the journal through the cluster.
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
	// 256 MiB). A longer body is refused with 413.
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

	// WAL, when non-nil, makes streams durable: every mutation is
	// journaled under WAL.Dir before it is acknowledged, periodic
	// checkpoints bound recovery, and Server.Recover rebuilds the streams
	// after a crash. Sharded streams journal on the coordinator too, but
	// never checkpoint (their rings live in the rank processes): recovery
	// replays their whole journal through the cluster.
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

// estimateKey identifies one density cube: a dataset at a version, a
// fully-derived problem spec, and the algorithm that computes it (or, with
// Algorithm empty, the exact-query index of the dataset and spec). Spec is
// comparable, so the key can index maps directly. Version is 0 for a
// content-addressed batch set; for a stream it is the dataset version the
// request resolved, so a cube, job or flight keyed at version v is reached
// only by requests that resolved v, and always holds the events of v or a
// later version.
type estimateKey struct {
	Dataset   string
	Version   int64
	Spec      grid.Spec
	Algorithm string
}

// id returns the stable job/grid identifier of the key.
func (k estimateKey) id() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%+v|%s", k.Dataset, k.Version, k.Spec, k.Algorithm)))
	return "j" + hex.EncodeToString(h[:8])
}

// Server is the density-serving subsystem. It implements http.Handler;
// mount it directly or behind a mux. Create it with New.
type Server struct {
	cfg     Config
	reg     *registry
	streams streamView // the registry's live streams
	cache   *gridCache
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

	// testHookEstimate, when non-nil, runs in every flight leader before
	// it builds a cache entry (after coalescing, pool admission for a cube,
	// and the dataset lookup). Tests use it to hold a build in flight
	// deterministically.
	testHookEstimate func(k estimateKey)
}

// New creates a Server with the given configuration. When an admission
// SLO is set without explicit machine rates, the pricing model is
// calibrated here (model.Calibrate, tens of milliseconds) so every
// prediction reflects the hardware actually serving.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := newRegistry()
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		streams: streamView{reg},
		cache:   newGridCache(cfg.CacheBytes),
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

// errShuttingDown rejects new estimation work once Shutdown has begun.
var errShuttingDown = fmt.Errorf("serve: shutting down, not accepting new estimations")

// enter admits one unit of estimation work to the drain group Shutdown
// waits for (the caller runs s.wg.Done when it ends), or refuses it with
// errShuttingDown once Shutdown has begun.
func (s *Server) enter() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errShuttingDown
	}
	s.wg.Add(1)
	return nil
}

// ensureGrid returns the cached density cube for the key, computing (and
// caching) it if absent. Concurrent calls for the same key coalesce into a
// single estimation; distinct keys run concurrently, bounded by the
// estimation pool behind the admission queue: the caller waits fairly
// with its tenant's peers, leaves the queue the moment ctx is cancelled,
// and (on the synchronous paths) is shed with a priced Retry-After when
// the predicted wait exceeds the SLO. Callers not already admitted to the
// drain group by startJob (the synchronous region/hotspot paths) pass
// preAdmitted=false: they are refused once Shutdown has begun, waited for
// by it otherwise, and subject to door shedding.
func (s *Server) ensureGrid(ctx context.Context, k estimateKey, tenant string, preAdmitted bool) (cube, bool, error) {
	if c, ok := s.cache.get(k); ok {
		s.met.cacheHits.Add(1)
		return c, true, nil
	}
	s.met.cacheMisses.Add(1)
	if !preAdmitted {
		if err := s.enter(); err != nil {
			return cube{}, false, err
		}
		defer s.wg.Done()
	}
	admit := func() (func(), error) {
		return s.adm.acquire(ctx, tenant, s.predictCost(k), !preAdmitted)
	}
	c, err := s.fill(ctx, k, admit, func(ds *dataset) (cube, error) {
		if ds.st != nil {
			res, err := s.streamResult(ds.st, k)
			return cube{res: res}, err
		}
		res, err := s.estimate(k, ds.points())
		return cube{res: res}, err
	})
	return c, false, err
}

// maxQueryBins bounds the bin table of a single exact-query index
// (~(GX/hs)·(GY/hs)·(GT/ht) slots): a request with a tiny bandwidth over
// a huge domain must not allocate an arbitrarily large table.
const maxQueryBins = 1 << 24

// queryIndex returns the exact-query index of the key's dataset at its
// version and spec, building it on first use, for the /v1/query fallback.
// The index ignores the algorithm, so it is cached under the key with
// Algorithm cleared, charged to the budget like a cube: its bins, and for a
// stream the live events it copied. Builds are not pool-admitted: an index
// costs one pass over the events, and the spec bounds its bin table
// (maxQueryBins).
func (s *Server) queryIndex(ctx context.Context, k estimateKey) (*core.Query, error) {
	d := k.Spec.Domain
	bins := (d.GX/k.Spec.HS + 1) * (d.GY/k.Spec.HS + 1) * (d.GT/k.Spec.HT + 1)
	if bins > maxQueryBins {
		return nil, fmt.Errorf("serve: exact query would bin the domain into %.0f blocks (limit %d); raise the bandwidths or shrink the domain", bins, maxQueryBins)
	}
	k.Algorithm = ""
	if c, ok := s.cache.get(k); ok {
		return c.q, nil
	}
	c, err := s.fill(ctx, k, nil, func(ds *dataset) (cube, error) {
		pts := ds.points()
		c := cube{q: core.NewQuery(pts, k.Spec, core.Options{}), qbytes: core.QueryBytes(k.Spec, len(pts))}
		if ds.st != nil {
			c.qbytes += int64(len(pts)) * 24 // three float64 per event
		}
		return c, nil
	})
	return c.q, err
}

// fill builds and caches the entry for k after the caller's cache miss.
// Concurrent fills of one key coalesce into one flight, whose leader finds
// the entry cached when a fill published it since the miss, and otherwise
// takes admit's pool slot (nil: no admission), looks up the dataset,
// builds the entry over it and publishes it. A fill racing the deletion of
// its stream must not leave an entry keyed to an id no request can resolve
// again: deleteStream drops the id's entries after deregistering it, and a
// fill that published later finds the id gone and drops them itself.
func (s *Server) fill(ctx context.Context, k estimateKey, admit func() (func(), error), build func(*dataset) (cube, error)) (cube, error) {
	return s.flight.do(ctx, k, func() (cube, error) {
		if c, ok := s.cache.get(k); ok {
			return c, nil
		}
		if admit != nil {
			release, err := admit()
			if err != nil {
				return cube{}, err
			}
			defer release()
		}
		ds, ok := s.reg.get(k.Dataset)
		if !ok {
			return cube{}, fmt.Errorf("serve: unknown dataset %q", k.Dataset)
		}
		if s.testHookEstimate != nil {
			s.testHookEstimate(k)
		}
		c, err := build(ds)
		if err != nil {
			return cube{}, err
		}
		c = s.publish(k, c)
		if _, ok := s.reg.get(k.Dataset); !ok {
			s.met.invalidations.Add(int64(s.cache.invalidateDataset(k.Dataset)))
		}
		return c, nil
	})
}

// estimate runs one batch estimation of the key over pts.
func (s *Server) estimate(k estimateKey, pts []grid.Point) (*core.Result, error) {
	s.met.estimations.Add(1)
	s.met.estInflight.Add(1)
	defer s.met.estInflight.Add(-1)
	return core.Estimate(k.Algorithm, pts, k.Spec, core.Options{Threads: s.cfg.Threads})
}

// charge runs alloc, an allocation charged to the cache budget, and on
// grid.ErrMemoryBudget evicts least-recently-used cached cubes to make
// room for need bytes, then retries. A concurrent cache fill can steal
// freed room between the eviction and the retry, so it retries for as
// long as eviction frees something: it ends with alloc done, a different
// error, or nothing left to evict. Every budgeted allocator checks the
// budget before it allocates, so a failed attempt costs nothing.
func (s *Server) charge(need int64, alloc func() error) error {
	for {
		err := alloc()
		if !errors.Is(err, grid.ErrMemoryBudget) {
			return err
		}
		evicted := s.cache.evictFor(need)
		s.met.evictions.Add(int64(evicted))
		if evicted == 0 {
			return err
		}
	}
}

// publish caches a freshly made entry under k. A cube is cached with its
// analytics pyramid, built here, before any reader can see the grid, when
// the pair fits the evictable share of the budget (otherwise the grid is
// cached alone and its readers scan it), and without the phase timings of
// the estimate that made it. It folds in the eviction and uncacheable
// accounting and returns the entry for the caller's answer.
func (s *Server) publish(k estimateKey, c cube) cube {
	stored := c
	if c.res != nil {
		if spec := c.res.Grid.Spec; s.cache.fits(spec.Bytes() + grid.PyramidBytes(spec)) {
			c.py, _ = grid.NewPyramid(c.res.Grid, s.cfg.Threads, nil) // no budget, no error: put charges it with its grid
			s.met.sketchRebuilds.Add(1)
		}
		stored = cube{res: resultFromGrid(k, c.res.Grid), py: c.py}
	}
	evicted, cached := s.cache.put(k, stored)
	s.met.evictions.Add(int64(evicted))
	if !cached {
		s.met.uncacheable.Add(1)
	}
	return c
}

// resultFromGrid wraps a grid nothing estimated (a cached cube, a window
// snapshot) in the Result shape the job and response paths share; phase
// timings are zero because nothing ran.
func resultFromGrid(k estimateKey, g *grid.Grid) *core.Result {
	return &core.Result{Algorithm: k.Algorithm, Grid: g}
}
