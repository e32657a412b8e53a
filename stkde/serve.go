package stkde

import (
	"repro/internal/grid"
	"repro/internal/serve"
	"repro/internal/wal"
)

// Density serving (the cmd/stkded daemon): a long-running HTTP subsystem
// that ingests datasets, caches estimated density cubes, coalesces
// identical requests, and answers voxel/region/hotspot queries. Mutable
// stream datasets (POST /v1/streams, then /v1/datasets/{id}/events and
// /v1/datasets/{id}/advance) keep a sliding window grid updated in place
// through a Stream, with exact invalidation of derived caches. See
// repro/internal/serve for the endpoint reference.
type (
	// ServeConfig configures a DensityServer (cache bytes, worker pool,
	// default algorithm, optional shard peers). The zero value is
	// production-safe.
	ServeConfig = serve.Config
	// ShardServeConfig names the rank cluster a DensityServer shards its
	// live streams across (ServeConfig.Shard): events are dealt
	// round-robin to the ranks, each holding the whole window, and
	// point/region/hotspot queries sum the ranks' raw partials.
	ShardServeConfig = serve.ShardConfig
	// DensityServer is the serving subsystem; it implements http.Handler,
	// so it mounts directly on an http.Server or test mux.
	DensityServer = serve.Server
	// WALServeConfig makes a DensityServer's live streams durable
	// (ServeConfig.WAL): every mutation is journaled before it is
	// acknowledged and DensityServer.Recover rebuilds the streams after a
	// crash from snapshot plus bounded tail replay.
	WALServeConfig = serve.WALConfig
	// RecoverStats reports what DensityServer.Recover rebuilt.
	RecoverStats = serve.RecoverStats
	// WALSyncPolicy selects when journaled mutations are fsynced
	// (WALServeConfig.Sync); parse flag spellings with ParseWALSyncPolicy.
	WALSyncPolicy = wal.SyncPolicy
	// AdmissionServeConfig configures the DensityServer's admission
	// control (ServeConfig.Admission): a latency SLO that sheds work the
	// §6.5 cost model predicts cannot finish in time, a bounded admission
	// queue that cancelled clients leave, and per-tenant sliding-window
	// rate limits with round-robin dequeue. Shed requests get 429 plus
	// an honest Retry-After derived from the prediction.
	AdmissionServeConfig = serve.AdmissionConfig
	// RateWindow is one per-tenant rate-limit interval (Limit requests
	// per Per); several evaluated together form a multi-interval limit.
	// Parse flag spellings like "50/s,600/m" with ParseTenantRates.
	RateWindow = serve.RateWindow
)

// ParseTenantRates parses a -tenant-rate flag spelling — comma-separated
// "limit/interval" terms such as "50/s,600/m,10000/h" (s/m/h or any Go
// duration) — into the RateWindow slice AdmissionServeConfig.TenantRates
// wants. An empty string means no rate limits.
func ParseTenantRates(s string) ([]RateWindow, error) { return serve.ParseRateWindows(s) }

// ParseWALSyncPolicy maps the -wal-sync flag spellings ("always",
// "interval", "none") to a WALSyncPolicy.
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// NewDensityServer creates a density-serving handler. Mount it with
// http.Server{Handler: srv}; call srv.Shutdown on exit to drain in-flight
// estimations into the cache.
func NewDensityServer(cfg ServeConfig) *DensityServer { return serve.New(cfg) }

// VoxelDensity is one voxel and its density estimate, as reported by
// (*Grid).TopK, (*Pyramid).TopK and (*Stream).TopK — the top-k hotspot
// query of the serving subsystem.
type VoxelDensity = grid.VoxelDensity
