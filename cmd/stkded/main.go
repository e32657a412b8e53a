// Command stkded is the STKDE density-serving daemon: a long-running HTTP
// service that ingests event sets, estimates density cubes on demand with
// request coalescing and an LRU grid cache, and answers voxel, region and
// hotspot queries.
//
// Usage:
//
//	stkded -addr :8377 -cache-mb 512 -workers 8 -algo pb-sym \
//	       -preload events.csv,more.csv
//
// Shard mode splits live streams across rank daemons. A rank daemon hosts
// a shard endpoint next to its HTTP listener:
//
//	stkded -addr :8378 -shard-listen :9378
//
// and a coordinator daemon names its ranks with -peers; every rank then
// holds the whole window of each live stream and a round-robin share of
// its events, and point, region and hotspot queries sum the ranks' raw
// partials:
//
//	stkded -addr :8377 -peers hostA:9378,hostB:9378
//
// Peers with the inproc:// scheme are hosted inside the coordinator
// process itself (useful for single-machine sharding and tests):
//
//	stkded -addr :8377 -peers inproc://r0,inproc://r1
//
// Shard fault tolerance: every rank connection runs a health state
// machine (up → suspect → down → reconnecting) driven by background
// heartbeat pings and error streaks, with -shard-rpc-timeout bounding
// each exchange. A down rank degrades — not breaks — the service: point,
// region and hotspot answers sum the live ranks' shares (the dead rank's
// events are missing from every voxel) and carry "coverage" and
// "degraded" fields (-shard-degraded failfast refuses them with 503 +
// Retry-After and the attributed rank error instead), and stream
// mutations commit on the coordinator and every live rank (their
// responses carry the same flags). When the rank comes back, the
// coordinator verifies the link and rebuilds the rank's replica by
// deterministic replay of the journaled mutation record; answers return
// to full coverage without operator action.
//
// Durability: -wal-dir journals every live-stream mutation (create,
// ingest, advance) to a segmented write-ahead log before it is
// acknowledged, and checkpoints each stream's window every
// -snapshot-every records, so a crashed daemon restarts warm — recovery
// is a snapshot load plus bounded tail replay, finished before the
// listener binds. -wal-sync picks the fsync policy: "always" (every
// acked mutation is durable), "interval" (a background flush every
// 100ms; a crash loses at most that much), or "none" (the OS decides).
// Journals live under <wal-dir>/<stream-id>/ and are inspectable with
// cmd/stkdewal. Sharded streams (-peers) journal here too — the
// coordinator's record is what re-seeds a reconnecting rank and, on a
// coordinator restart, re-creates the stream across the cluster by
// replaying the journal (sharded journals skip checkpoints: the window
// rings live in the rank processes).
//
//	stkded -addr :8377 -wal-dir /var/lib/stkde/wal -wal-sync always
//
// Overload protection: every estimation, ingest and advance is priced at
// the door with the paper's Section 6.5 cost model (calibrated by
// micro-benchmark at startup when -slo-ms is set). -slo-ms names a
// latency objective: requests whose predicted wait (queue ahead of them
// plus their own cost) exceeds it are shed with 429 and a Retry-After
// derived from the prediction, instead of timing out after consuming a
// worker. -queue-depth bounds the admission queue (waiters beyond it are
// shed; cancelled clients leave the queue without consuming a slot), and
// -tenant-rate applies per-tenant sliding-window rate limits — clients
// name themselves with an X-Tenant header, tenants are dequeued
// round-robin, and one tenant's flood cannot starve another:
//
//	stkded -addr :8377 -slo-ms 2000 -queue-depth 256 -tenant-rate 50/s,600/m
//
// Endpoints (JSON unless noted):
//
//	POST /v1/datasets    ingest a CSV body (x,y,t); returns the dataset id
//	GET  /v1/datasets    list registered datasets
//	POST /v1/streams     create a live stream dataset (JSON window spec)
//	GET  /v1/streams     list live streams and their window positions
//	POST /v1/datasets/{id}/events   append CSV events to a stream; the
//	                     window grid is updated in place (no recompute)
//	POST /v1/datasets/{id}/advance  slide a stream's window to {"t": ...},
//	                     expiring events the window leaves behind
//	DELETE /v1/datasets/{id}        delete a stream, releasing its pinned
//	                     window grid and every derived cache
//	POST /v1/estimate    start/join an estimation job; poll /v1/jobs/{id}
//	GET  /v1/jobs/{id}   job status, timings, peak and mass when done
//	GET  /v1/query       density at (x,y,t): live stream window, cached
//	                     voxel, or exact fallback
//	GET  /v1/region      probability mass of a voxel box — O(1) from the
//	                     summed-volume pyramid on static grids, and from
//	                     the incremental window sketch on live streams
//	                     (no O(G) snapshot); responses carry "source":
//	                     "sketch", or "grid" for the exact fallback
//	GET  /v1/hotspots    top-k densest voxels, pruned by block maxima on
//	                     both static grids and live windows
//	GET  /healthz        liveness, stream count, cache occupancy, and
//	                     admission state (queue depth, shed counts, a
//	                     degraded flag while actively shedding); in shard
//	                     mode also a "shard" section with per-rank health
//	                     states, down count, and completed heals — a down
//	                     rank marks the whole replica degraded
//	GET  /debug/vars     expvar metrics (cache hits/misses, stream
//	                     ingest/advance counters, sketch_hits /
//	                     sketch_rebuilds, latency p50/p99, admission_*
//	                     admitted/shed/queue-depth/per-tenant counters;
//	                     in shard mode also shard_comm per-rank bytes,
//	                     shard_gathers, shard_gather p50/p99, shard_health
//	                     per-rank states, shard_heals, and
//	                     shard_degraded_mutations)
//
// SIGINT/SIGTERM drain the HTTP listener and in-flight estimations before
// exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/stkde"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stkded:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	addr        string
	cfg         stkde.ServeConfig
	preload     []string
	drain       time.Duration
	shardListen string                  // host a rank endpoint here ("" = none)
	peers       []string                // shard live streams across these rank endpoints
	shardRPC    time.Duration           // per-RPC deadline for shard exchanges
	shardPolicy stkde.ShardGatherPolicy // down-rank gather policy
}

// parseArgs parses the command line into options, kept separate from run
// so tests can exercise flag handling without binding a listener.
func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("stkded", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8377", "listen address")
		cacheMB  = fs.Int64("cache-mb", 256, "grid cache budget in MB")
		workers  = fs.Int("workers", 0, "concurrent estimations (0 = all cores)")
		threads  = fs.Int("threads", 1, "threads per batch estimation (live streams ingest on every core)")
		algo     = fs.String("algo", stkde.AlgPBSYM, "default algorithm: "+strings.Join(stkde.Algorithms(), ", "))
		preload  = fs.String("preload", "", "comma-separated CSV files to ingest at startup")
		drain    = fs.Duration("drain", 30*time.Second, "graceful shutdown deadline")
		shardLn  = fs.String("shard-listen", "", "host a shard rank endpoint at this address (host:port) for other daemons' -peers")
		peers    = fs.String("peers", "", "comma-separated rank endpoints to shard live streams across (host:port, or inproc://name to host the rank in-process)")
		shardRPC = fs.Duration("shard-rpc-timeout", 30*time.Second, "deadline for one shard RPC exchange; a rank that does not answer in time is marked failed and healed in the background")
		shardDeg = fs.String("shard-degraded", "partial", "down-rank gather policy: partial (merge live ranks, report coverage) or failfast (refuse with the attributed rank error)")
		walDir   = fs.String("wal-dir", "", "journal live streams under this directory (created if absent); streams survive a crash via warm restart")
		walSync  = fs.String("wal-sync", "always", "WAL fsync policy: always, interval, or none")
		snapN    = fs.Int("snapshot-every", 0, "checkpoint a stream's window every N journal records (0 = default 4096, negative = only at shutdown)")
		sloMS    = fs.Int("slo-ms", 0, "latency SLO in ms: shed requests whose model-predicted wait exceeds it with 429 + Retry-After (0 = no SLO shedding)")
		queueN   = fs.Int("queue-depth", 0, "bound the admission queue at this many waiters (0 = default 1024)")
		rates    = fs.String("tenant-rate", "", "per-tenant rate limits, comma-separated limit/interval terms (e.g. 50/s,600/m,10000/h); tenants are named by the X-Tenant header")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err // includes flag.ErrHelp; run maps it to exit 0
	}
	if !stkde.ValidAlgorithm(*algo) {
		return options{}, fmt.Errorf("unknown algorithm %q; valid algorithms: %s",
			*algo, strings.Join(stkde.Algorithms(), ", "))
	}
	o := options{
		addr: *addr,
		cfg: stkde.ServeConfig{
			CacheBytes:       *cacheMB << 20,
			Workers:          *workers,
			Threads:          *threads,
			DefaultAlgorithm: *algo,
		},
		drain:       *drain,
		shardListen: *shardLn,
	}
	if *shardRPC <= 0 {
		return options{}, fmt.Errorf("-shard-rpc-timeout must be > 0")
	}
	o.shardRPC = *shardRPC
	policy, err := stkde.ParseShardGatherPolicy(*shardDeg)
	if err != nil {
		return options{}, fmt.Errorf("-shard-degraded: %w", err)
	}
	o.shardPolicy = policy
	if *sloMS < 0 {
		return options{}, fmt.Errorf("-slo-ms must be >= 0")
	}
	if *queueN < 0 {
		return options{}, fmt.Errorf("-queue-depth must be >= 0")
	}
	if *sloMS > 0 || *queueN > 0 || *rates != "" {
		windows, err := stkde.ParseTenantRates(*rates)
		if err != nil {
			return options{}, fmt.Errorf("-tenant-rate: %w", err)
		}
		// Machine is left nil: when an SLO is set the server calibrates
		// the cost model by micro-benchmark at startup.
		o.cfg.Admission = &stkde.AdmissionServeConfig{
			SLO:         time.Duration(*sloMS) * time.Millisecond,
			QueueDepth:  *queueN,
			TenantRates: windows,
		}
	}
	if *walDir != "" {
		policy, err := stkde.ParseWALSyncPolicy(*walSync)
		if err != nil {
			return options{}, err
		}
		o.cfg.WAL = &stkde.WALServeConfig{
			Dir:           *walDir,
			Sync:          policy,
			SnapshotEvery: *snapN,
		}
	} else if *snapN != 0 {
		return options{}, fmt.Errorf("-snapshot-every needs -wal-dir")
	}
	if *preload != "" {
		o.preload = strings.Split(*preload, ",")
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				return options{}, fmt.Errorf("-peers has an empty endpoint")
			}
			o.peers = append(o.peers, p)
		}
	}
	return o, nil
}

// ensureWALDir creates the journal root if absent and proves it is
// writable with a probe file, so a mis-pointed -wal-dir fails at startup
// with a clear error instead of failing the first stream create at
// request time.
func ensureWALDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("-wal-dir %s: %w", dir, err)
	}
	probe, err := os.CreateTemp(dir, ".stkded-probe-*")
	if err != nil {
		return fmt.Errorf("-wal-dir %s is not writable: %w", dir, err)
	}
	name := probe.Name()
	probe.Close()
	os.Remove(name)
	return nil
}

func run(args []string) error {
	o, err := parseArgs(args)
	if errors.Is(err, flag.ErrHelp) {
		return nil // -h: usage already printed, exit 0
	}
	if err != nil {
		return err
	}
	// Shard setup: host a rank endpoint when asked, auto-host inproc://
	// peers inside this process, and hand the serving subsystem its
	// cluster configuration (it dials the peers on first stream creation).
	var shardRanks []*stkde.ShardRank
	if o.shardListen != "" || len(o.peers) > 0 {
		shardNet := stkde.NewShardNetwork()
		rankOpt := stkde.ShardRankOptions{Local: stkde.Options{Threads: o.cfg.Threads}}
		host := func(addr string) error {
			r, err := stkde.ListenShardRank(shardNet, addr, rankOpt)
			if err != nil {
				return err
			}
			shardRanks = append(shardRanks, r)
			fmt.Printf("shard rank  %s\n", r.Addr())
			return nil
		}
		if o.shardListen != "" {
			if err := host(o.shardListen); err != nil {
				return err
			}
		}
		for _, p := range o.peers {
			if strings.HasPrefix(p, "inproc://") {
				if err := host(p); err != nil {
					return err
				}
			}
		}
		defer func() {
			for _, r := range shardRanks {
				r.Close()
			}
		}()
		if len(o.peers) > 0 {
			o.cfg.Shard = &stkde.ShardServeConfig{
				Peers:    o.peers,
				Network:  shardNet,
				Timeouts: stkde.ShardTimeouts{RPC: o.shardRPC},
				Policy:   o.shardPolicy,
			}
			fmt.Printf("sharding    streams across %d rank(s) (rpc timeout %s, degraded policy %s)\n",
				len(o.peers), o.shardRPC, o.shardPolicy)
		}
	}

	if o.cfg.WAL != nil {
		if err := ensureWALDir(o.cfg.WAL.Dir); err != nil {
			return err
		}
	}
	srv := stkde.NewDensityServer(o.cfg)
	// Recover journaled streams before the listener binds: no request can
	// observe a half-rebuilt table, and a corrupt journal refuses startup
	// loudly instead of serving silently shortened history.
	if o.cfg.WAL != nil {
		stats, err := srv.Recover()
		if err != nil {
			return err
		}
		if stats.Streams > 0 || stats.Tombstones > 0 {
			fmt.Printf("recovered   %d stream(s) (%d warm from snapshots, %d records replayed, %d events live)\n",
				stats.Streams, stats.Snapshots, stats.Replayed, stats.Events)
		}
		fmt.Printf("wal         %s (sync %s)\n", o.cfg.WAL.Dir, o.cfg.WAL.Sync)
	}
	for _, name := range o.preload {
		name = strings.TrimSpace(name)
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		pts, err := stkde.ReadPointsCSV(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("preload %s: %w", name, err)
		}
		id, err := srv.AddDataset(pts)
		if err != nil {
			return fmt.Errorf("preload %s: %w", name, err)
		}
		fmt.Printf("preloaded   %s as %s (%d events)\n", name, id, len(pts))
	}

	httpSrv := &http.Server{Addr: o.addr, Handler: srv}
	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	fmt.Printf("engine      %s fill kernels\n", stkde.EngineISA())
	fmt.Printf("listening   %s (cache %d MB, %s default)\n",
		o.addr, o.cfg.CacheBytes>>20, o.cfg.DefaultAlgorithm)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("shutting down: draining requests and in-flight estimations")
	dctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		return err
	}
	return srv.Shutdown(dctx)
}
