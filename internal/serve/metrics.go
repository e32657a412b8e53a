package serve

import (
	"expvar"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/simd"
)

// metrics aggregates the server's operational counters into a private
// expvar.Map (not published to the process-global registry, so multiple
// servers — e.g. in tests — do not collide). It is rendered by the
// /debug/vars endpoint in the standard expvar JSON shape.
type metrics struct {
	m *expvar.Map

	datasets    expvar.Int // registered datasets
	estimations expvar.Int // actual estimation runs (post-coalescing)
	estInflight expvar.Int // estimations currently computing
	cacheHits   expvar.Int
	cacheMisses expvar.Int
	evictions   expvar.Int
	uncacheable expvar.Int // cubes and query indexes larger than the evictable cache share
	jobsDone    expvar.Int
	jobsFailed  expvar.Int
	inflight    expvar.Int // HTTP requests in flight
	latency     *latencyHist

	streams         expvar.Func // live stream datasets, counted in the registry
	streamEvents    expvar.Int  // events ingested into streams
	streamAdvances  expvar.Int  // window advances that moved a stream
	streamReads     expvar.Int  // queries answered from a live window ring
	streamSnapshots expvar.Int  // window snapshots served/cached
	invalidations   expvar.Int  // cached grids + query indexes dropped by stream mutation

	sketchHits     expvar.Int // region/hotspot/job answers served from a sketch
	sketchRebuilds expvar.Int // pyramid builds + stream sketch blocks rebuilt

	walAppends         expvar.Int // stream mutations journaled
	walCheckpoints     expvar.Int // stream snapshots written
	walCheckpointFails expvar.Int // automatic checkpoints that failed
	walRecovered       expvar.Int // streams rebuilt by Recover
	walReplayed        expvar.Int // journal records replayed by Recover

	shardGathers  expvar.Int   // cross-shard gathers (sketch merges + snapshots)
	shardLatency  *latencyHist // wall time of those gathers
	shardDegraded expvar.Int   // mutations committed at reduced coverage (a rank was down)

	admAdmitted   expvar.Int  // work requests granted a pool slot
	admShed       expvar.Int  // work requests shed (all reasons)
	admShedSLO    expvar.Int  // ... predicted wait over the latency SLO
	admShedRate   expvar.Int  // ... tenant over a sliding-window rate limit
	admShedQueue  expvar.Int  // ... admission queue at its depth bound
	admCanceled   expvar.Int  // waiters that left the queue on ctx cancel
	admTenantShed *expvar.Map // sheds by tenant
}

func newMetrics() *metrics {
	met := &metrics{m: new(expvar.Map).Init(), latency: newLatencyHist(1024)}
	// The instruction set the compute engine dispatches to ("avx2" or
	// "scalar") — static per process, but exported so an operator reading
	// /debug/vars can attribute latency differences across a fleet of
	// heterogeneous hosts.
	engineISA := new(expvar.String)
	engineISA.Set(simd.Active())
	met.m.Set("engine_isa", engineISA)
	met.m.Set("datasets", &met.datasets)
	met.m.Set("estimations", &met.estimations)
	met.m.Set("estimations_inflight", &met.estInflight)
	met.m.Set("cache_hits", &met.cacheHits)
	met.m.Set("cache_misses", &met.cacheMisses)
	met.m.Set("cache_evictions", &met.evictions)
	met.m.Set("cache_uncacheable", &met.uncacheable)
	met.m.Set("jobs_done", &met.jobsDone)
	met.m.Set("jobs_failed", &met.jobsFailed)
	met.m.Set("requests_inflight", &met.inflight)
	met.m.Set("stream_events", &met.streamEvents)
	met.m.Set("stream_advances", &met.streamAdvances)
	met.m.Set("stream_reads", &met.streamReads)
	met.m.Set("stream_snapshots", &met.streamSnapshots)
	met.m.Set("stream_invalidations", &met.invalidations)
	met.m.Set("sketch_hits", &met.sketchHits)
	met.m.Set("sketch_rebuilds", &met.sketchRebuilds)
	met.m.Set("wal_appends", &met.walAppends)
	met.m.Set("wal_checkpoints", &met.walCheckpoints)
	met.m.Set("wal_checkpoint_failures", &met.walCheckpointFails)
	met.m.Set("wal_recovered_streams", &met.walRecovered)
	met.m.Set("wal_replayed_records", &met.walReplayed)
	met.m.Set("latency_p50_ms", expvar.Func(func() any { return met.latency.quantile(0.50) * 1e3 }))
	met.m.Set("latency_p99_ms", expvar.Func(func() any { return met.latency.quantile(0.99) * 1e3 }))
	met.shardLatency = newLatencyHist(1024)
	met.m.Set("shard_gathers", &met.shardGathers)
	met.m.Set("shard_gather_p50_ms", expvar.Func(func() any { return met.shardLatency.quantile(0.50) * 1e3 }))
	met.m.Set("shard_gather_p99_ms", expvar.Func(func() any { return met.shardLatency.quantile(0.99) * 1e3 }))
	met.m.Set("shard_degraded_mutations", &met.shardDegraded)
	met.admTenantShed = new(expvar.Map).Init()
	met.m.Set("admission_admitted", &met.admAdmitted)
	met.m.Set("admission_shed", &met.admShed)
	met.m.Set("admission_shed_slo", &met.admShedSLO)
	met.m.Set("admission_shed_rate", &met.admShedRate)
	met.m.Set("admission_shed_queue", &met.admShedQueue)
	met.m.Set("admission_canceled", &met.admCanceled)
	met.m.Set("admission_tenant_shed", met.admTenantShed)
	return met
}

// publishAdmission exposes the admission queue's live state: current
// depth and the mean |predicted - actual| wait error of the pricing
// model. Called once, when the server wires its admission controller.
func (m *metrics) publishAdmission(a *admission) {
	m.m.Set("admission_queue_depth", expvar.Func(func() any { return a.queueDepth() }))
	m.m.Set("admission_wait_error_ms", expvar.Func(func() any { return a.waitErrorMS() }))
}

// publishStreams exposes the live stream count, read from the registry,
// and work counters of core.UpdaterStats, summed over the live local
// windows (a sharded window's updaters live in the rank processes): event
// applications performed inside advances — zero while no stream ingests
// ahead of its window — and event × strip applications of the parallel
// apply, whose excess over the applied events is its recomputation
// overhead. The shard_stream_* counters sum dist.StreamStats over the
// live sharded windows: events shipped to ranks (the events ingested, when
// every rank is up), threshold top-k rounds, and raw voxel values fetched.
func (m *metrics) publishStreams(t streamView) {
	m.streams = func() any { return t.count() }
	m.m.Set("streams", m.streams)
	local := func(pick func(core.UpdaterStats) int64) expvar.Func {
		return func() any {
			var n int64
			for _, st := range t.list() {
				if lw, ok := st.up.(localWindow); ok {
					n += pick(lw.Stats())
				}
			}
			return n
		}
	}
	m.m.Set("stream_advance_reapplied", local(func(us core.UpdaterStats) int64 { return us.AdvanceReapplied }))
	m.m.Set("stream_strip_applies", local(func(us core.UpdaterStats) int64 { return us.StripApplies }))
	sharded := func(pick func(dist.StreamStats) int64) expvar.Func {
		return func() any {
			var n int64
			for _, st := range t.list() {
				if sg, ok := st.up.(*dist.StreamGroup); ok {
					n += pick(sg.Stats())
				}
			}
			return n
		}
	}
	m.m.Set("shard_stream_events_shipped", sharded(func(ss dist.StreamStats) int64 { return ss.EventsShipped }))
	m.m.Set("shard_stream_topk_rounds", sharded(func(ss dist.StreamStats) int64 { return ss.TopKRounds }))
	m.m.Set("shard_stream_voxels_fetched", sharded(func(ss dist.StreamStats) int64 { return ss.VoxelsFetched }))
}

// publishShard exposes the connected cluster's rank count, cumulative
// per-rank communication profile (bytes sent/received, frame prefixes
// included), live per-rank health, and completed heal count in
// /debug/vars. Called once, when the shard cluster connects.
func (m *metrics) publishShard(cl *dist.Cluster) {
	m.m.Set("shard_ranks", expvar.Func(func() any { return cl.Ranks() }))
	m.m.Set("shard_comm", expvar.Func(func() any { return cl.CommStats() }))
	m.m.Set("shard_health", expvar.Func(func() any { return cl.Health() }))
	m.m.Set("shard_heals", expvar.Func(func() any { return cl.Heals() }))
}

// latencyHist keeps a bounded ring of recent request latencies and answers
// quantile queries over the retained window. A fixed window keeps memory
// constant under sustained traffic while tracking current behaviour, which
// is what an operator polling p50/p99 wants.
type latencyHist struct {
	mu   sync.Mutex
	ring []float64 // seconds
	n    int       // total observations ever
}

func newLatencyHist(window int) *latencyHist {
	return &latencyHist{ring: make([]float64, 0, window)}
}

func (h *latencyHist) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.ring) < cap(h.ring) {
		h.ring = append(h.ring, d.Seconds())
	} else {
		h.ring[h.n%cap(h.ring)] = d.Seconds()
	}
	h.n++
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of the
// retained window in seconds, the ceil(q*n)-th smallest of n, or 0 when
// nothing was observed.
func (h *latencyHist) quantile(q float64) float64 {
	h.mu.Lock()
	sorted := append([]float64(nil), h.ring...)
	h.mu.Unlock()
	if len(sorted) == 0 {
		return 0
	}
	sort.Float64s(sorted)
	return sorted[max(0, int(math.Ceil(q*float64(len(sorted))))-1)]
}
