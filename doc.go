// Package repro is a from-scratch Go reproduction of Saule, Panchananam,
// Hohl, Tang and Delmelle, "Parallel Space-Time Kernel Density Estimation"
// (ICPP 2017, arXiv:1705.09366).
//
// Import the public API from repro/stkde (estimation) and repro/synth
// (synthetic datasets and the Table 2 benchmark catalog). The command-line
// tools live under cmd/ and the paper's tables and figures are regenerated
// by cmd/stkdebench and the benchmarks in bench_test.go. The layers beyond
// the paper (serving, streaming, analytics, durability, sharded streams)
// are measured per layer by the repository benchmark: BENCHMARK.json names
// the metrics and `bash benchmark/run.sh --workload <name> --trace 1`
// writes them.
//
// Beyond the paper's shared-memory algorithms, repro/internal/dist
// implements the paper's future-work item as a real distributed-memory
// estimator: the time axis is sharded into voxel-aligned temporal slabs
// (one per rank), boundary events are replicated to neighboring slabs (halo
// exchange), and each rank is a protocol endpoint (dist.RankServer) running
// any of the twelve shared-memory strategies on its slab, reached over
// framed TCP or a zero-copy in-process channel — one wire protocol behind
// both transports, with scatter/gather bytes counted at the framing layer.
// A cluster also hosts sharded live-stream windows, partitioned by event
// instead of by slab (the paper's PB-SYM-DR layout): every rank holds the
// whole window and a 1/R share of the events, advances ship nothing, and
// point/region/hotspot queries sum the ranks' raw partials — hotspots by a
// threshold top-k gather — instead of gathering grids. A dead rank thins
// the answers by its share until it is re-seeded. It is exposed as
// stkde.EstimateDistributed and the
// ShardNetwork/ShardRank/ShardCluster surface, the -ranks flag of
// cmd/stkde, the -shard-listen/-peers flags of cmd/stkded, the "dist" and
// "faults" experiments of cmd/stkdebench, and the benchmark's stream-shard
// workload (dist.gather_boxmass_us, dist.gather_topk_us,
// dist.bytes_per_gather).
//
// The PB-family hot path is a specialized compute engine: the in-disk Y
// range of every X column is computed once (disk spans), points are
// pre-sorted by the Morton index of their home voxel for cache locality,
// and kernels implementing the kernel.PolySpatial / kernel.PolyTemporal
// specialization hook (the default Epanechnikov, plus quartic, triweight
// and uniform) compile to monomorphic fill loops with no interface
// dispatch — user-supplied kernels transparently use the generic path.
// On amd64 the span primitives are further vectorized: repro/internal/simd
// provides hand-written AVX2 assembly (no FMA, so lane rounding matches
// the scalar loops bitwise) for the multiply-add row update and the packed
// disk/bar polynomial fills, selected once at startup by CPUID probing
// (stkde.EngineISA reports the choice; build with -tags purego to force
// the pure-Go fallbacks). There is one engine and no option selects it:
// in every build its volumes are bitwise identical to the dense
// bandwidth-box scan kept as the test oracle, and the benchmark's batch-hb
// workload measures it (core.seq.compute_s).
//
// repro/internal/serve turns the library into a long-running service: a
// dataset registry with content-addressed ingestion, an LRU grid cache
// under a byte budget, singleflight request coalescing over a bounded
// estimation pool, and JSON HTTP endpoints for estimation jobs, voxel
// queries, region mass and top-k hotspots. It is exposed as
// stkde.NewDensityServer and the cmd/stkded daemon, and measured by the
// benchmark's serve-read workload (serve.read_rps, serve.cache_hits,
// serve.cache_misses, serve.estimations).
//
// Estimation is also available as a streaming process: core.Updater (the
// public stkde.Stream) owns a sliding temporal window of density stored in
// a ring-buffer grid (grid.Ring, built on the Spec.OT frame-offset
// machinery), folds events in and retracts them through the engine's
// signed-weight contribution primitive — each event applied once, its
// whole cylinder written into the ring's Gt window layers and Ht hidden
// layers just past the window's end, and each batch split over X strips on
// every core (the paper's PB-SYM-DD inside the window, bitwise the same for
// any thread count) — advances the window by rotating the ring and zeroing
// only the freed layers, the hidden layers sliding in already filled (no
// event is re-applied; only events ingested ahead of the window are
// touched again), and bounds
// floating-point cancellation drift with a running residual estimate plus
// periodic compaction. The serving subsystem exposes it as mutable stream datasets
// (POST /v1/streams, /v1/datasets/{id}/events, /v1/datasets/{id}/advance)
// whose grids are updated in place; the benchmark's stream-mixed workload
// measures it (core.updater_add_us_per_event, core.updater_advance_ms).
//
// Analytics over the volume are sublinear: grid.Pyramid (the public
// stkde.NewPyramid) holds a 3-D summed-volume table answering box masses
// with an O(1) 8-corner lookup plus block maxima that prune top-k and
// threshold scans to the blocks that can still matter, and grid.RingSketch
// maintains the same aggregates incrementally inside a live stream's ring
// (per-event dirty bandwidth boxes, lazily rebuilt at query time), so the
// serving tier's /v1/region and /v1/hotspots answer from sketches on both
// static grids and live windows — measured as grid.pyramid_* on the
// benchmark's serve-read workload and core.updater_boxmass_us,
// core.updater_topk_us and core.sketch_rebuilds on stream-mixed.
//
// Live streams are durable: repro/internal/wal is a segmented write-ahead
// log (CRC-framed records, group-commit fsync batching, torn-tail
// truncation on recovery) with periodic window snapshots, so the serving
// tier journals every stream mutation before acknowledging it and a
// crashed daemon restarts warm — snapshot load plus bounded tail replay,
// bitwise-identical to an uninterrupted run. Enabled by the -wal-dir /
// -wal-sync / -snapshot-every flags of cmd/stkded, inspected offline by
// cmd/stkdewal, and measured by the benchmark's stream-mixed workload
// (serve.recover_s, wal.replay_events_per_s, wal.snapshot_write_s).
//
// The serving tier is overload-safe: an admission layer in front of the
// estimation pool prices every request with the paper's performance model
// (repro/internal/model, calibrated on the host at startup) and sheds work
// whose predicted queue wait exceeds a configured SLO — 429 plus a
// Retry-After derived from the prediction — while a bounded, context-aware
// queue dequeues round-robin across tenants (X-Tenant header) under
// multi-interval sliding-window rate limits, evicting from the
// most-backlogged tenant when full. Enabled by the -slo-ms / -queue-depth
// / -tenant-rate flags of cmd/stkded, observable via /healthz and the
// admission_* expvars, and proven by the "overload" experiment of
// cmd/stkdebench (BENCH_overload.json): at ~9x measured capacity the
// admitted p99 stays within twice the SLO and under-limit tenants are not
// starved.
package repro
