package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/par"
)

// Cluster is the coordinator's handle on a set of connected rank endpoints:
// one connection per rank, each carrying the shard protocol with a strict
// request/response discipline (a per-connection mutex pairs every reply
// with its request, so batch estimates and multiple shard streams can share
// the connections). Every exchange runs under a per-RPC deadline; transport
// failures sever the connection and feed the per-rank health state machine
// (health.go), which redials and re-seeds failed ranks.
type Cluster struct {
	ranks      []*rankConn
	dialer     Transport
	t          Timeouts
	policy     GatherPolicy
	nextStream atomic.Uint64
	pingNonce  atomic.Uint64
	heals      atomic.Int64 // completed heal cycles, for metrics

	reseedMu  sync.Mutex
	reseeders map[uint64]func(rank int) error

	monStop chan struct{}
	monOnce sync.Once
	monWG   sync.WaitGroup
}

// rankConn serializes calls on one rank connection and tracks its health.
type rankConn struct {
	mu   sync.Mutex    // orders request/response exchanges and conn swaps
	c    *countingConn // nil while the rank is severed
	addr string

	sent, recv atomic.Int64 // cumulative bytes across reconnects
	epoch      atomic.Int64 // severed-connection count (see health.go)

	hmu     sync.Mutex // guards the health fields below
	state   RankState
	streak  int
	since   time.Time
	lastErr error

	healMu sync.Mutex // serializes heal attempts
}

// RankComm is one rank's cumulative communication profile.
type RankComm struct {
	Addr string
	Sent int64 // bytes sent to the rank, including frame prefixes
	Recv int64 // bytes received from the rank, including frame prefixes
}

// ClusterOptions tunes a cluster connection beyond the defaults.
type ClusterOptions struct {
	// Timeouts bounds dialing, RPC exchanges and heartbeats. Zero fields
	// default (Dial 5s, RPC 30s, Heartbeat 1s); negative fields are
	// rejected.
	Timeouts Timeouts

	// Policy selects degraded-gather behavior for sharded streams
	// (default GatherPartial).
	Policy GatherPolicy

	// HeartbeatEvery starts a background monitor that pings up ranks and
	// heals failed ones at this period. Zero disables the monitor
	// (failures are still detected on the erroring call, and Probe can
	// drive recovery manually).
	HeartbeatEvery time.Duration

	// Transport overrides the dialer used for the initial connections and
	// every reconnect — the seam the fault tests' chaos transport
	// (chaos_test.go) plugs into. Defaults to the Network passed to
	// ConnectCluster.
	Transport Transport
}

// Connect dials every peer address on the network with default options.
// On any failure the already established connections are closed and the
// dial error is attributed to its rank.
func Connect(n *Network, peers []string) (*Cluster, error) {
	return ConnectCluster(n, peers, ClusterOptions{})
}

// ConnectCluster dials every peer address with explicit options. On any
// failure the already established connections are closed and the dial
// error is attributed to its rank.
func ConnectCluster(n *Network, peers []string, opt ClusterOptions) (*Cluster, error) {
	if len(peers) == 0 {
		return nil, errors.New("dist: connect needs at least one peer")
	}
	if err := opt.Timeouts.Validate(); err != nil {
		return nil, err
	}
	dialer := opt.Transport
	if dialer == nil {
		dialer = n
	}
	// Propagate explicit timeouts to the TCP dial path. Written only when
	// set, and before this cluster opens any connection; callers sharing
	// one Network across concurrently connecting clusters should set
	// Network.TCP.Timeouts themselves instead.
	if n != nil && opt.Timeouts != (Timeouts{}) {
		n.TCP.Timeouts = opt.Timeouts
	}
	c := &Cluster{
		ranks:     make([]*rankConn, len(peers)),
		dialer:    dialer,
		t:         opt.Timeouts.withDefaults(),
		policy:    opt.Policy,
		reseeders: make(map[uint64]func(int) error),
		monStop:   make(chan struct{}),
	}
	for i, addr := range peers {
		conn, err := dialer.Dial(addr)
		if err != nil {
			c.Close()
			return nil, rankErr(i, "dial", err)
		}
		rc := &rankConn{addr: addr}
		rc.c = &countingConn{c: conn, sent: &rc.sent, recv: &rc.recv}
		c.ranks[i] = rc
	}
	if opt.HeartbeatEvery > 0 {
		c.monWG.Add(1)
		go c.monitorLoop(opt.HeartbeatEvery)
	}
	return c, nil
}

// Ranks returns the number of connected rank endpoints.
func (c *Cluster) Ranks() int { return len(c.ranks) }

// Heals returns the number of completed heal cycles (reconnect + re-seed).
func (c *Cluster) Heals() int64 { return c.heals.Load() }

// Close stops the health monitor and severs every rank connection. Rank
// servers release any stream state tied to the connections.
func (c *Cluster) Close() error {
	c.monOnce.Do(func() { close(c.monStop) })
	c.monWG.Wait()
	var first error
	for _, rc := range c.ranks {
		if rc == nil {
			continue
		}
		rc.mu.Lock()
		if rc.c != nil {
			if err := rc.c.Close(); err != nil && first == nil {
				first = err
			}
			rc.c = nil
		}
		rc.mu.Unlock()
	}
	return first
}

// CommStats reports the cumulative per-rank bytes moved over the cluster's
// connections (frame prefixes included, reconnects accumulated). Safe to
// call concurrently with in-flight requests.
func (c *Cluster) CommStats() []RankComm {
	out := make([]RankComm, len(c.ranks))
	for i, rc := range c.ranks {
		out[i] = RankComm{Addr: rc.addr, Sent: rc.sent.Load(), Recv: rc.recv.Load()}
	}
	return out
}

// callRaw performs one request/response exchange with a rank under ctx, no
// health gating. Transport failures (including a severed connection) are
// attributed with the caller's phase and marked as transport errors; a
// rank-side msgErr reply carries its own phase from the server and is not
// a transport error.
func (c *Cluster) callRaw(ctx context.Context, rank int, req []byte, phase string) ([]byte, error) {
	rc := c.ranks[rank]
	rc.mu.Lock()
	defer rc.mu.Unlock()
	cc := rc.c
	if cc == nil {
		return nil, rankErr(rank, phase, &transportError{errClosed})
	}
	if err := cc.Send(ctx, req); err != nil {
		return nil, rankErr(rank, phase, &transportError{err})
	}
	reply, err := cc.Recv(ctx)
	if err != nil {
		return nil, rankErr(rank, phase, &transportError{err})
	}
	if len(reply) >= 4 && le.Uint32(reply) == msgErr {
		rphase, text, derr := decodeErr(reply)
		if derr != nil {
			return nil, rankErr(rank, phase, &transportError{derr})
		}
		return nil, rankErr(rank, rphase, errors.New(text))
	}
	return reply, nil
}

// streamCall is one exchange under the RPC timeout with failure accounting
// but no health gate: stream fan-out decides per rank whether to call via
// its own seeded-epoch routing, and heal's replay must reach a rank that
// is not fully up yet.
func (c *Cluster) streamCall(rank int, req []byte, phase string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.t.RPC)
	defer cancel()
	reply, err := c.callRaw(ctx, rank, req, phase)
	if err != nil && isTransportErr(err) {
		c.markFailure(rank, err)
	}
	return reply, err
}

// call is the health-gated exchange: a rank that is not up fails fast with
// ErrRankDown instead of burning the RPC timeout against a dead peer.
func (c *Cluster) call(rank int, req []byte, phase string) ([]byte, error) {
	if !c.rankUp(rank) {
		return nil, rankErr(rank, phase, ErrRankDown)
	}
	return c.streamCall(rank, req, phase)
}

// estimateAttempts bounds the per-rank retry loop of a batch estimate.
const estimateAttempts = 3

// estimateExchange runs one rank's slab estimate with retries: transport
// failures heal the rank (redial, ping, stream re-seed) and retry with
// exponential backoff + jitter; rank-side errors are final. ctx aborts the
// whole loop — the caller cancels it on the first non-retryable failure of
// any rank.
func (c *Cluster) estimateExchange(ctx context.Context, rank int, req []byte) ([]byte, error) {
	var lastErr error
	for attempt := 1; attempt <= estimateAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, rankErr(rank, "scatter", err)
		}
		if attempt > 1 {
			t := time.NewTimer(retryBackoff(attempt - 1))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, lastErr
			}
		}
		if !c.rankUp(rank) {
			if err := c.heal(rank); err != nil {
				lastErr = err
				continue
			}
		}
		rctx, rcancel := context.WithTimeout(ctx, c.t.RPC)
		reply, err := c.callRaw(rctx, rank, req, "scatter")
		rcancel()
		if err == nil {
			return reply, nil
		}
		if !isTransportErr(err) {
			return nil, err // rank-side application error: not retryable
		}
		// The exchange was interrupted mid-frame (timeout, cancellation,
		// or a dead peer): the connection is unusable either way, so it is
		// severed and the health machinery owns the redial.
		c.markFailure(rank, err)
		lastErr = err
	}
	return nil, lastErr
}

// Estimate computes the STKDE of pts over the cluster: temporal slab
// carving and halo replication exactly as the single-process simulation
// did, but the scatter, the per-slab estimation and the gather now cross
// the cluster's transport. The number of slabs is the connected rank count
// (clamped to the temporal grid size); surplus ranks idle. Transport
// failures are retried per rank with backoff; the first non-retryable
// failure cancels the in-flight RPCs of every other rank instead of
// waiting out the stragglers.
func (c *Cluster) Estimate(pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	if opt.Local.NormN != 0 {
		return nil, errors.New("dist: Local.NormN is set by the driver and must be zero")
	}
	alg := opt.Algorithm
	if alg == "" {
		alg = core.AlgPBSYM
	}
	if !core.ValidAlgorithm(alg) {
		return nil, fmt.Errorf("dist: unknown algorithm %q", alg)
	}

	ranks := opt.Ranks
	if ranks < 1 || ranks > c.Ranks() {
		ranks = c.Ranks()
	}
	slabs := spec.CarveT(ranks)
	r := len(slabs)
	st := Stats{Ranks: r, RankPoints: make([]int, r)}

	// Partition: every point goes to its owner slab and to every neighbor
	// slab its influence box reaches. Scanning pts in order keeps each
	// rank's list in input order, so per-voxel summation order — and hence
	// the floating-point result — matches the single-process run.
	assign := make([][]grid.Point, r)
	for _, p := range pts {
		_, _, T := spec.VoxelOf(p)
		for _, sl := range slabs {
			if sl.NeedsLayer(T, spec.Ht) {
				assign[sl.Index] = append(assign[sl.Index], p)
				if !sl.OwnsLayer(T) {
					st.ReplicatedPts++
				}
			}
		}
	}

	threads := opt.Local.Threads
	if threads < 1 {
		threads = 1
	}
	// The Morton locality pre-pass must use the ROOT spec's frame: a
	// rank's sub-spec shifts T by the slab offset, which would interleave
	// different key bits and reorder per-voxel summation relative to the
	// single-process run, breaking the bitwise contract. Each rank's list
	// is in input order (see the partition step), so a stable sort by the
	// root key restricts the global sorted order exactly; the rank servers
	// always skip their own sort.
	sortLocal := !opt.Local.NoSort

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type rankReply struct {
		data         []float64
		sent, recved int64
	}
	replies := make([]rankReply, r)
	errs := make([]error, r)
	par.For(r, r, func(i int) {
		lpts := assign[i]
		if sortLocal {
			lpts = grid.SortByMorton(lpts, spec)
		}
		req := encodeEstimate(estimateReq{
			rank: i, threads: threads, normN: len(pts),
			alg: alg, spec: slabs[i].Spec, pts: lpts,
		})
		reply, err := c.estimateExchange(ctx, i, req)
		if err != nil {
			errs[i] = err
			cancel() // no point waiting out the other ranks
			return
		}
		rank, _, data, err := decodeGather(reply)
		if err != nil {
			errs[i] = rankErr(i, "gather", err)
			cancel()
			return
		}
		if rank != i {
			errs[i] = rankErr(i, "gather", fmt.Errorf("reply routed from rank %d", rank))
			cancel()
			return
		}
		replies[i] = rankReply{
			data:   data,
			sent:   int64(len(req)) + frameHeaderBytes,
			recved: int64(len(reply)) + frameHeaderBytes,
		}
	})
	if err := firstCause(errs); err != nil {
		return nil, err
	}

	// Gather: merge the disjoint slab grids into the global volume.
	out, err := grid.NewGrid(spec, opt.Local.Budget)
	if err != nil {
		return nil, err
	}
	for i := range replies {
		st.RankPoints[i] = len(assign[i])
		st.ScatterBytes += replies[i].sent
		st.GatherBytes += replies[i].recved
		st.Messages += 2
		data := replies[i].data
		nt := slabs[i].Spec.Gt
		if len(data) != spec.Gx*spec.Gy*nt {
			out.Release()
			return nil, rankErr(i, "gather", fmt.Errorf("slab grid has %d voxels, want %d", len(data), spec.Gx*spec.Gy*nt))
		}
		t0 := slabs[i].T0
		for X := 0; X < spec.Gx; X++ {
			for Y := 0; Y < spec.Gy; Y++ {
				src := data[(X*spec.Gy+Y)*nt : (X*spec.Gy+Y+1)*nt]
				dst := out.Idx(X, Y, t0)
				copy(out.Data[dst:dst+nt], src)
			}
		}
	}

	// Imbalance: the classic max-over-mean load ratio on point counts.
	maxPts, sumPts := 0, 0
	for _, n := range st.RankPoints {
		sumPts += n
		if n > maxPts {
			maxPts = n
		}
	}
	st.Imbalance = 1
	if sumPts > 0 {
		st.Imbalance = float64(maxPts) * float64(r) / float64(sumPts)
	}

	return &Result{Algorithm: alg, Grid: out, Stats: st}, nil
}

// firstCause picks the most informative error from a per-rank slice: a
// rank that failed on its own merits beats one whose RPC was merely
// cancelled because of the first failure.
func firstCause(errs []error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}
