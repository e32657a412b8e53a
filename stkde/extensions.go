package stkde

import (
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/grid"
)

// Stream is the sliding-window streaming estimator (core.Updater): a
// long-lived engine owning a temporal ring-buffer window of density that
// stays exact under Add (fold events in, O(Hs²·Ht) each), Remove (retract
// with the bitwise-exact signed-weight negation), and AdvanceTo (slide the
// window forward by whole voxel layers — an O(1) ring rotation and
// zeroing only the freed layers, while the layers entering the window
// arrive already filled by every Add, expiring events the window leaves
// behind). Drift from floating-point cancellation is tracked by a running
// residual bound; crossing it (or every StreamConfig.CompactEvery
// mutations) triggers a full re-estimate of the live events. It serves the
// daily-update surveillance workflow of the paper's introduction.
type Stream = core.Updater

// StreamConfig configures a Stream (kernels, budget, drift control).
type StreamConfig = core.UpdaterConfig

// StreamStats reports a Stream's live count, work and drift counters.
type StreamStats = core.UpdaterStats

// NewStream creates an empty sliding-window estimator whose window is the
// temporal extent of spec; AdvanceTo slides it forward from there.
func NewStream(spec Spec, cfg StreamConfig) (*Stream, error) {
	return core.NewUpdater(spec, cfg)
}

// Pyramid is the sublinear analytics index of a density grid: a 3-D
// summed-volume table answering BoxMass with an O(1) 8-corner lookup, plus
// coarse block maxima pruning TopK to the blocks that can still matter.
// Build one when a volume is queried repeatedly; answers agree with the
// naive Grid scans to within accumulation rounding (TopK selections are
// exactly the sequential scan's).
type Pyramid = grid.Pyramid

// NewPyramid builds the analytics index of g with up to threads workers
// (< 1 means GOMAXPROCS), charged to the budget if one is provided (return
// the charge with b.Free(py.Bytes()) when done with it). The grid must stay
// immutable and alive while the pyramid is used.
//
// Streams need no explicit pyramid: Stream.TopK and Stream.BoxMass answer
// from an incremental sketch maintained inside the window ring.
func NewPyramid(g *Grid, threads int, b *Budget) (*Pyramid, error) {
	return grid.NewPyramid(g, threads, b)
}

// Query answers exact density queries at arbitrary continuous space-time
// coordinates without building a grid, using bandwidth-block indexing.
type Query = core.Query

// NewQuery indexes events for point-wise density evaluation.
func NewQuery(pts []Point, spec Spec, opt Options) *Query {
	return core.NewQuery(pts, spec, opt)
}

// Distributed-memory estimation (the paper's future-work item): batch
// estimates shard the time axis into slabs, live streams shard their
// events over ranks that each hold the whole window, and rank endpoints
// speak a framed shard protocol over real transports — TCP between
// processes or machines, a zero-copy in-process channel when ranks share
// the coordinator's process.
type (
	// DistOptions configures a distributed-memory run.
	DistOptions = dist.Options
	// DistResult is a distributed estimation outcome (grid plus
	// communication statistics).
	DistResult = dist.Result
	// DistStats reports message counts, bytes moved, and rank balance.
	DistStats = dist.Stats

	// ShardNetwork multiplexes the two shard transports by address
	// scheme: "inproc://name" endpoints ride the in-process channel
	// transport, anything else is dialed as framed TCP.
	ShardNetwork = dist.Network
	// ShardRank is a listening rank endpoint serving the shard protocol:
	// batch slab estimates and sharded live-stream windows.
	ShardRank = dist.RankServer
	// ShardRankOptions configures a rank endpoint's local estimation.
	ShardRankOptions = dist.ServerOptions
	// ShardCluster is a coordinator's handle on connected rank endpoints.
	ShardCluster = dist.Cluster
	// RankError attributes a distributed failure to a rank and a protocol
	// phase (dial, scatter, estimate, gather, ingest, advance, query, ...).
	RankError = dist.RankError

	// ShardTimeouts bounds cluster dialing, per-RPC exchanges, and
	// heartbeat pings; zero fields take the defaults (5s / 30s / 1s).
	ShardTimeouts = dist.Timeouts
	// ShardGatherPolicy selects how sharded analytics behave when a rank
	// is down: merge the live ranks and report coverage, or fail fast.
	ShardGatherPolicy = dist.GatherPolicy
	// ShardCoverage reports how many ranks contributed to an answer.
	ShardCoverage = dist.Coverage
	// ShardDegradedError reports a mutation that committed everywhere but
	// on at least one failed rank (rebuilt by replay when it heals).
	ShardDegradedError = dist.DegradedError
	// ShardRankHealth is one rank's externally visible health snapshot.
	ShardRankHealth = dist.RankHealth
)

// Gather policies for ShardServeConfig.Policy / -shard-degraded.
const (
	// ShardGatherPartial (default) merges the live ranks' sketches and
	// reports the reduced coverage alongside the answer.
	ShardGatherPartial = dist.GatherPartial
	// ShardGatherFailFast refuses degraded answers: any down rank fails
	// the query with its attributed RankError.
	ShardGatherFailFast = dist.GatherFailFast
)

// ErrShardRankDown marks an operation refused because its target rank is
// not currently healthy; always wrapped in a RankError. Test with
// errors.Is.
var ErrShardRankDown = dist.ErrRankDown

// ParseShardGatherPolicy parses "partial" or "failfast" ("" = partial).
func ParseShardGatherPolicy(s string) (ShardGatherPolicy, error) {
	return dist.ParseGatherPolicy(s)
}

// NewShardNetwork creates a transport multiplexer for shard endpoints.
func NewShardNetwork() *ShardNetwork { return dist.NewNetwork() }

// ListenShardRank starts a rank endpoint on addr ("host:port" for TCP,
// "inproc://name" for in-process) and serves until Close.
func ListenShardRank(n *ShardNetwork, addr string, opt ShardRankOptions) (*ShardRank, error) {
	return dist.ListenRank(n, addr, opt)
}

// ConnectShard dials the rank endpoints at peers, in rank order, returning
// the coordinator handle used for distributed estimation (and by the
// serving subsystem for sharded streams, via ServeConfig.Shard).
func ConnectShard(n *ShardNetwork, peers []string) (*ShardCluster, error) {
	return dist.Connect(n, peers)
}

// EstimateDistributed computes the STKDE on a distributed-memory machine
// self-hosted on the in-process transport (see repro/internal/dist for the
// model and the exactness argument). To place ranks in other processes,
// build the ShardNetwork/ShardRank/ShardCluster pieces directly.
func EstimateDistributed(pts []Point, spec Spec, opt DistOptions) (*DistResult, error) {
	return dist.Estimate(pts, spec, opt)
}
