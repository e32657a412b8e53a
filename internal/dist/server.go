package dist

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/par"
)

// ServerOptions configures a rank endpoint.
type ServerOptions struct {
	// Local supplies the rank-side estimation resources: memory budget,
	// kernels, decomposition. The per-request knobs — algorithm, threads,
	// normalization count, spec, points — arrive over the wire;
	// function-valued options (kernels) cannot cross a real network and
	// therefore live here, configured by whoever starts
	// the rank process. Local.Threads (GOMAXPROCS when unset) is the
	// rank's own core count: it caps the wire-carried thread counts, and a
	// stream created with thread count 0 uses all of it.
	Local core.Options
}

// RankServer hosts one rank endpoint: it accepts coordinator connections
// and serves the shard protocol on each, one goroutine per connection.
// State is per-connection — a coordinator's streams die with its
// connection, so a crashed coordinator cannot leak rank-side windows.
type RankServer struct {
	ln  Listener
	opt ServerOptions

	mu     sync.Mutex
	conns  map[Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ListenRank binds a rank endpoint on the network and starts serving.
func ListenRank(n *Network, addr string, opt ServerOptions) (*RankServer, error) {
	ln, err := n.Listen(addr)
	if err != nil {
		return nil, err
	}
	s := &RankServer{ln: ln, opt: opt, conns: make(map[Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the bound address (with the inproc:// scheme or the actual
// TCP port for ":0" binds), suitable for Cluster peers lists.
func (s *RankServer) Addr() string { return s.ln.Addr() }

// Close stops accepting, severs every live connection (releasing their
// stream state) and waits for the handlers to drain.
func (s *RankServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *RankServer) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// rankStream is one live sharded window hosted for a connection.
type rankStream struct {
	up *core.Updater
}

func (s *RankServer) serveConn(c Conn) {
	defer s.wg.Done()
	streams := make(map[uint64]*rankStream)
	defer func() {
		for _, st := range streams {
			st.up.Release()
		}
		if len(streams) > 0 {
			// Every stream window is a full window (StreamGroup shards by
			// event), and a reconnecting coordinator re-seeds new ones at
			// once: collect the dead connection's windows now, so the rank
			// never holds two generations of them.
			runtime.GC()
		}
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	// The server waits for the next request unboundedly (idle coordinator
	// connections are normal); mid-frame reads are still bounded by the
	// transport's RPC timeout, so a coordinator dying mid-send cannot pin
	// the handler goroutine forever.
	ctx := context.Background()
	for {
		msg, err := c.Recv(ctx)
		if err != nil {
			return
		}
		reply := s.handle(streams, msg)
		if err := c.Send(ctx, reply); err != nil {
			return
		}
	}
}

// handle serves one request message, returning the encoded reply. Every
// failure becomes a msgErr reply carrying the phase, so the coordinator can
// attribute it (RankError) instead of losing the connection.
func (s *RankServer) handle(streams map[uint64]*rankStream, msg []byte) []byte {
	if len(msg) < 4 {
		return encodeErr("decode", "message too short for a kind")
	}
	switch le.Uint32(msg) {
	case msgPing:
		nonce, err := decodePing(msg)
		if err != nil {
			return encodeErr("decode", err.Error())
		}
		return encodeOK(int64(nonce), 0)
	case msgEstimate:
		q, err := decodeEstimate(msg)
		if err != nil {
			return encodeErr("decode", err.Error())
		}
		return s.handleEstimate(q)
	case msgStreamCreate:
		id, threads, spec, err := decodeStreamCreate(msg)
		if err != nil {
			return encodeErr("decode", err.Error())
		}
		if _, ok := streams[id]; ok {
			return encodeErr("create", fmt.Sprintf("stream %d already exists", id))
		}
		opt := s.opt.Local
		opt.Threads = s.workers(threads, s.ownThreads())
		up, err := core.NewUpdater(spec, core.UpdaterConfig{Options: opt})
		if err != nil {
			return encodeErr("create", err.Error())
		}
		streams[id] = &rankStream{up: up}
		return encodeOK(0, 0)
	case msgStreamClose:
		id, err := decodeStreamClose(msg)
		if err != nil {
			return encodeErr("decode", err.Error())
		}
		if st, ok := streams[id]; ok {
			st.up.Release()
			delete(streams, id)
		}
		return encodeOK(0, 0)
	case msgIngest:
		id, pts, err := decodeIngest(msg)
		if err != nil {
			return encodeErr("decode", err.Error())
		}
		st, ok := streams[id]
		if !ok {
			return encodeErr("ingest", fmt.Sprintf("no stream %d", id))
		}
		st.up.Add(pts...)
		return encodeOK(int64(len(pts)), 0)
	case msgAdvance:
		id, k, err := decodeAdvance(msg)
		if err != nil {
			return encodeErr("decode", err.Error())
		}
		st, ok := streams[id]
		if !ok {
			return encodeErr("advance", fmt.Sprintf("no stream %d", id))
		}
		adv, exp := st.up.AdvanceBy(k)
		return encodeOK(int64(adv), int64(exp))
	case msgFetch:
		id, vs, err := decodeFetch(msg)
		if err != nil {
			return encodeErr("decode", err.Error())
		}
		st, ok := streams[id]
		if !ok {
			return encodeErr("query", fmt.Sprintf("no stream %d", id))
		}
		// The connection serves one request at a time, so the ring is not
		// being mutated while it is read.
		ring := st.up.Ring()
		vals := make([]float64, len(vs))
		for i, v := range vs {
			if !inWindow(ring.Spec(), v) {
				return encodeErr("query", fmt.Sprintf("voxel (%d,%d,%d) outside the window", v.X, v.Y, v.T))
			}
			vals[i] = ring.At(v.X, v.Y, v.T)
		}
		return encodeFetchAns(vals)
	case msgRegion:
		id, box, err := decodeRegion(msg)
		if err != nil {
			return encodeErr("decode", err.Error())
		}
		st, ok := streams[id]
		if !ok {
			return encodeErr("query", fmt.Sprintf("no stream %d", id))
		}
		sum, err := st.up.BoxSumRaw(box)
		if err != nil {
			return encodeErr("query", err.Error())
		}
		return encodeSum(sum, st.up.SketchRebuilds())
	case msgTopK:
		id, k, scale, err := decodeTopK(msg)
		if err != nil {
			return encodeErr("decode", err.Error())
		}
		st, ok := streams[id]
		if !ok {
			return encodeErr("query", fmt.Sprintf("no stream %d", id))
		}
		cands, err := st.up.TopKScaled(k, scale)
		if err != nil {
			return encodeErr("query", err.Error())
		}
		return encodeTopKAns(st.up.SketchRebuilds(), cands)
	case msgSnapshot:
		id, err := decodeSnapshot(msg)
		if err != nil {
			return encodeErr("decode", err.Error())
		}
		st, ok := streams[id]
		if !ok {
			return encodeErr("snapshot", fmt.Sprintf("no stream %d", id))
		}
		g, err := st.up.RawSnapshot(nil)
		if err != nil {
			return encodeErr("snapshot", err.Error())
		}
		reply := encodeGather(0, 0, g.Data)
		g.Release()
		return reply
	default:
		return encodeErr("decode", fmt.Sprintf("unexpected message kind %d", le.Uint32(msg)))
	}
}

// ownThreads is the rank's own core count: ServerOptions.Local.Threads,
// GOMAXPROCS when unset.
func (s *RankServer) ownThreads() int { return par.Threads(s.opt.Local.Threads) }

// workers turns a wire-carried thread count into the workers a request
// may use: below 1 it becomes unset (the caller's default), and it never
// exceeds the rank's own core count — a frame must not make a rank
// allocate per-worker replicas or scratches by the billion.
func (s *RankServer) workers(wire, unset int) int {
	if wire < 1 {
		return unset
	}
	return min(wire, s.ownThreads())
}

// handleEstimate runs one batch slab estimation with the server's local
// resources and the request's wire-carried knobs. The reply is the raw slab
// grid in a gather message (t0 = 0: the coordinator knows its slab table).
func (s *RankServer) handleEstimate(q estimateReq) []byte {
	opt := s.opt.Local
	opt.Threads = s.workers(q.threads, 1)
	opt.NormN = q.normN
	// The coordinator pre-sorts each rank's points by the ROOT spec's
	// Morton key (the sub-spec frame would derange the bits); a rank-local
	// sort would break the bitwise contract.
	opt.NoSort = true
	res, err := core.Estimate(q.alg, q.pts, q.spec, opt)
	if err != nil {
		return encodeErr("estimate", err.Error())
	}
	reply := encodeGather(q.rank, 0, res.Grid.Data)
	res.Grid.Release()
	return reply
}
