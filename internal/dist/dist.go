// Package dist implements distributed-memory space-time kernel density
// estimation — the explicit future-work item of Saule et al., "Parallel
// Space-Time Kernel Density Estimation" (ICPP 2017, Section 8) — on top of
// the partitioned-execution machinery of repro/internal/grid and
// repro/internal/core.
//
// Model: R ranks, each owning one temporal slab of the voxel grid
// (grid.Spec.CarveT). Each rank is a real protocol endpoint (RankServer)
// reached over one of two transports behind a single Conn interface: framed
// TCP for ranks in other processes or on other machines, or a zero-copy
// in-process channel when ranks share the coordinator's process (Network
// picks by address scheme, "inproc://name" vs "host:port"). The wire
// protocol is identical on both paths, so communication statistics are
// measured bytes either way, and the test suite can assert cross-transport
// equivalence.
//
// One batch estimation (Cluster.Estimate) proceeds in four steps:
//
//  1. Partition. Every event belongs to the slab containing its temporal
//     voxel; events whose temporal bandwidth overlaps a neighboring slab
//     are additionally replicated there (halo exchange), so each rank can
//     compute its slab without further communication.
//  2. Scatter. Each rank's point set is serialized and sent to its
//     endpoint together with the slab sub-spec, algorithm name, thread
//     count and global normalization count.
//  3. Local estimation. Ranks run concurrently, each reusing any of the
//     twelve shared-memory strategies on its local sub-spec (default
//     PB-SYM) with the global 1/(n·hs²·ht) normalization.
//  4. Gather. Each rank's slab grid comes back in a gather message and the
//     disjoint slabs are merged into the global density volume.
//
// Beyond batch estimation, a Cluster hosts sharded live windows
// (StreamGroup). A sliding window is partitioned by event, not by slab —
// the paper's PB-SYM-DR layout: every rank holds the whole window, the
// i-th ingested event goes to rank i mod R, window advances broadcast a
// single layer count and ship no events, and reads sum the ranks' raw
// partials — O(1) values per rank for point and region reads, and a
// threshold-algorithm top-k gather for hotspots, instead of O(G) grids.
//
// Fault tolerance: every rank connection runs a health state machine
// (up → suspect → down → reconnecting; see health.go). RPC exchanges carry
// per-exchange deadlines (Timeouts.RPC), idempotent reads retry with
// jittered backoff, and transport-error streaks mark the rank down;
// ConnectCluster's heartbeat monitor pings idle ranks and heals failed
// ones in the background (dial, nonce-echo ping, then rebuild the rank's
// replica by deterministic replay of each StreamGroup's mutation log).
// While a rank is down, stream reads sum the surviving ranks under
// GatherPartial — a dead rank thins every voxel by its share of the
// events — and report Coverage alongside the answer (GatherFailFast
// refuses with an attributed RankError instead); mutations commit on the
// coordinator and live ranks and return a DegradedError naming the
// reduced coverage — they are never retried on the wire, since a resend
// could double-apply — and snapshots, which need every share, fail fast
// with ErrRankDown. The chaos harness (chaos_test.go, fault_test.go) kills and
// heals ranks under a deterministic seed and asserts the healed cluster
// matches a single-process reference within 1e-9.
//
// Exactness: slab sub-specs sample bitwise-identical voxel centers
// (grid.Spec.SubSpecT), halo replication is conservative (the kernel
// distance tests zero any voxel outside a point's true cylinder), and
// per-voxel summation preserves the input point order, so with the default
// sequential PB-SYM per rank the merged volume is bitwise equal to the
// single-process PB-SYM result; parallel local strategies agree within
// floating-point summation-order noise. The test suite asserts ≤1e-9 for
// R ∈ {1, 2, 4, 7} including non-divisible slab sizes, on both transports.
package dist

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/grid"
)

// Options configures a distributed-memory run.
type Options struct {
	// Ranks is the number of ranks R. Values < 1 mean 1; values above the
	// temporal grid size are clamped so that every rank owns at least one
	// voxel layer.
	Ranks int

	// Algorithm is the local strategy each rank runs on its slab — any
	// name accepted by core.Estimate (default core.AlgPBSYM).
	Algorithm string

	// Local configures the per-rank runs: threads within a rank (default
	// 1, modeling single-core nodes), kernels, the decomposition used by
	// parallel local strategies, and the memory budget (shared by all
	// ranks and the gathered output grid when the ranks are in-process).
	// Local.NormN must be zero (the driver sets it to the global point
	// count).
	Local core.Options
}

// Stats reports the communication profile and balance of a run. Byte
// counts are measured at the transport framing layer (length prefixes
// included), identical across the TCP and in-process paths.
type Stats struct {
	Ranks         int     // ranks R after clamping
	Messages      int     // messages exchanged: R scatter + R gather
	ScatterBytes  int64   // bytes of the serialized estimate requests
	GatherBytes   int64   // bytes of the serialized slab-grid replies
	ReplicatedPts int     // halo copies beyond each point's single owner
	Imbalance     float64 // max/mean of per-rank point loads (1 = perfect)
	RankPoints    []int   // per-rank local point counts (owned + halo)
}

// Result is a distributed estimation outcome.
type Result struct {
	Algorithm string     // local strategy the ranks ran
	Grid      *grid.Grid // merged global density volume
	Stats     Stats
}

// Estimate computes the STKDE of pts on spec using R ranks, self-hosting
// the ranks on the in-process transport: it spins up R RankServers inside
// this process, connects a Cluster to them over the real shard protocol,
// runs one distributed estimation and tears everything down. The returned
// grid covers the full spec and is identical to the corresponding
// single-process estimate (see the package comment for the exactness
// argument). To keep ranks in other processes or on other machines, build
// the Network/RankServer/Cluster pieces directly.
func Estimate(pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	r := len(spec.CarveT(opt.Ranks))
	n := NewNetwork()
	servers := make([]*RankServer, 0, r)
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	peers := make([]string, r)
	for i := 0; i < r; i++ {
		s, err := ListenRank(n, fmt.Sprintf("inproc://rank%d", i), ServerOptions{Local: opt.Local})
		if err != nil {
			return nil, rankErr(i, "listen", err)
		}
		servers = append(servers, s)
		peers[i] = s.Addr()
	}
	cluster, err := Connect(n, peers)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	return cluster.Estimate(pts, spec, opt)
}
