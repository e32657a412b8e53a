package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/grid"
	"repro/stkde"
)

// streamPlan sizes a stream stage: one live stream, one closed-loop writer
// and one open-loop reader beside it.
type streamPlan struct {
	events   int     // events the writer ingests, in time order
	batch    int     // events per POST …/events
	windows  int     // window lengths the events span
	readHz   float64 // open-loop read rate
	ranks    int     // 0: local ring; n > 0: sharded over n TCP rank servers in this process
	recovers int     // restarts timed after the run (each a fresh server's Recover)
	finals   int     // reads taken at the end and compared with the oracle and across restarts
}

// Shares of /v1/query and /v1/region in the stream reader's mix: thirds.
var streamShares = [2]float64{1.0 / 3, 1.0 / 3}

// queryGuard keeps point queries this many layers clear of the window's
// trailing edge: the reader resolves a query's time from the slide it has
// seen acknowledged, and an advance may land while the request is queued.
const queryGuard = 3

// streamStage drives writes beside reads on one live stream: journal
// before apply under the stream lock, engine apply, sketch repair, and
// reads contending for the same lock.
type streamStage struct {
	plan   streamPlan
	win    grid.Spec
	seed   uint64
	outDir string

	script []writeOp
	reads  []readReq
	hash   opHash

	walDir  string
	net     *stkde.ShardNetwork
	ranks   []*stkde.ShardRank
	cfg     stkde.ServeConfig
	d       *daemon
	id      string
	params  string
	regionP []string // pre-rendered paths of the non-query reads
	slide   atomic.Int64

	ingestLat, advanceLat  sample // seconds
	readLat, late, lateGen sample
	readKind               []byte // kind of each read in readLat
	readSvc                sample // send→reply of the same reads
	writerWall, readerWall time.Duration
	eventsAcked            int
	recoverS               sample
	deltas                 map[string]float64
}

// generate derives the writer's script and the reader's list from the seed.
func (s *streamStage) generate() (err error) {
	if s.script, err = streamScript(s.win, s.plan.windows, s.plan.events, s.plan.batch, s.seed); err != nil {
		return err
	}
	// The reader cycles through its list; it stops when the writer does.
	s.reads = readMix(s.win, max(64, s.plan.events/100), streamShares, queryGuard, s.seed)
	s.hash = hashOps(s.script, s.reads, nil)
	return nil
}

// setup generates the inputs, starts the rank servers (if sharded) and the
// daemon with journaling on, and creates the stream.
func (s *streamStage) setup() error {
	if err := s.teardown(); err != nil {
		return err
	}
	s.ingestLat, s.advanceLat, s.readLat, s.late, s.lateGen = nil, nil, nil, nil, nil
	s.readKind, s.readSvc, s.recoverS, s.eventsAcked = nil, nil, nil, 0
	err := s.generate()
	if err != nil {
		return err
	}
	if s.walDir, err = os.MkdirTemp(s.outDir, "wal-"); err != nil {
		return err
	}
	sync, err := stkde.ParseWALSyncPolicy("interval")
	if err != nil {
		return err
	}
	s.cfg = stkde.ServeConfig{WAL: &stkde.WALServeConfig{Dir: s.walDir, Sync: sync}}
	if s.plan.ranks > 0 {
		s.net = stkde.NewShardNetwork()
		var peers []string
		for i := 0; i < s.plan.ranks; i++ {
			rk, err := stkde.ListenShardRank(s.net, "127.0.0.1:0", stkde.ShardRankOptions{})
			if err != nil {
				return err
			}
			s.ranks = append(s.ranks, rk)
			peers = append(peers, rk.Addr())
		}
		s.cfg.Shard = &stkde.ShardServeConfig{Peers: peers, Network: s.net}
	}
	if s.d, _, err = startDaemon(s.cfg, false); err != nil {
		return err
	}
	c := newClient(s.d.base)
	defer c.close()
	w := s.win
	body, err := json.Marshal(map[string]any{
		"sres": w.SRes, "tres": w.TRes, "hs": w.HS, "ht": w.HT,
		"domain": map[string]float64{
			"x0": w.Domain.X0, "y0": w.Domain.Y0, "t0": w.Domain.T0,
			"gx": w.Domain.GX, "gy": w.Domain.GY, "gt": w.Domain.GT,
		},
	})
	if err != nil {
		return err
	}
	var st struct {
		Dataset string `json:"dataset"`
	}
	if err := c.call(http.MethodPost, "/v1/streams", "application/json", body, &st); err != nil {
		return err
	}
	s.id = st.Dataset
	s.params = specParams(s.id, w)
	s.regionP = make([]string, len(s.reads))
	for i, q := range s.reads {
		if q.kind != opQuery {
			s.regionP[i] = q.path(s.params, w, 0)
		}
	}
	s.slide.Store(0)
	return nil
}

// readPath renders read i against the window as the reader last saw it.
func (s *streamStage) readPath(i int) string {
	q := s.reads[i%len(s.reads)]
	if q.kind != opQuery {
		return s.regionP[i%len(s.reads)]
	}
	return q.path(s.params, s.win, s.win.Domain.T0+float64(s.slide.Load())*s.win.TRes)
}

// streamJSON is the part of the mutation responses the stage reads.
type streamJSON struct {
	Points   int `json:"points"`
	Advanced int `json:"advanced_layers"`
}

// write is the closed-loop writer: the script in order, one request
// outstanding, each timed from send to body read.
func (s *streamStage) write(tr *tracer, rep *report) {
	c := newClient(s.d.base)
	defer c.close()
	events, advance := "/v1/datasets/"+s.id+"/events", "/v1/datasets/"+s.id+"/advance"
	t0 := time.Now()
	for _, op := range s.script {
		path, ctype := events, "text/csv"
		if op.kind == opAdvance {
			path, ctype = advance, "application/json"
		}
		a := time.Now()
		code, body, err := c.do(http.MethodPost, path, ctype, op.body)
		b := time.Now()
		if err != nil || code != http.StatusOK {
			rep.ops(1, 1, fmt.Errorf("POST %s: HTTP %d, %v", path, code, err))
			continue
		}
		rep.ops(1, 0, nil)
		if tr != nil {
			tr.add(0, tr.newOp(), "http:"+string(op.kind), a, b, int64(len(op.events)))
		}
		if op.kind == opIngest {
			s.ingestLat = append(s.ingestLat, b.Sub(a).Seconds())
			s.eventsAcked += len(op.events)
			continue
		}
		s.advanceLat = append(s.advanceLat, b.Sub(a).Seconds())
		var out streamJSON
		if json.Unmarshal(body, &out) == nil {
			s.slide.Add(int64(out.Advanced))
		}
	}
	s.writerWall = time.Since(t0)
}

// read is the open-loop reader: read i is due at start + i/readHz whether
// or not earlier reads have returned, is never skipped, and is timed from
// its due instant — so a stall is charged to every read it delays. It
// stops at the first read due after stop is closed.
func (s *streamStage) read(stop <-chan struct{}, tr *tracer, rep *report) {
	c := newClient(s.d.base)
	defer c.close()
	period := time.Duration(float64(time.Second) / s.plan.readHz)
	start := time.Now()
	defer func() { s.readerWall = time.Since(start) }()
	prevDone := start
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		select {
		case <-stop:
			return
		case <-time.After(max(time.Until(due), 0)):
		}
		path := s.readPath(i)
		a := time.Now()
		code, _, err := c.do(http.MethodGet, path, "", nil)
		b := time.Now()
		// Lateness the generator itself caused: the gap between when the
		// read could first have gone out (its due time, or the previous
		// reply if that came later) and when it did.
		free := due
		if prevDone.After(free) {
			free = prevDone
		}
		s.late = append(s.late, a.Sub(due).Seconds())
		s.lateGen = append(s.lateGen, a.Sub(free).Seconds())
		prevDone = b
		if err != nil || code != http.StatusOK {
			rep.ops(1, 1, fmt.Errorf("GET %s: HTTP %d, %v", shortPath(path), code, err))
			continue
		}
		rep.ops(1, 0, nil)
		s.readLat = append(s.readLat, b.Sub(due).Seconds())
		s.readKind = append(s.readKind, s.reads[i%len(s.reads)].kind)
		s.readSvc = append(s.readSvc, b.Sub(a).Seconds())
		if tr != nil {
			tr.add(0, tr.newOp(), "http:"+string(s.reads[i%len(s.reads)].kind), a, b, 0)
		}
	}
}

func (s *streamStage) measure(tr *tracer, rep *report) error {
	c := newClient(s.d.base)
	defer c.close()
	before, err := c.vars()
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	var rrep report // the reader's own tally; merged after it has stopped
	go func() {
		defer close(readerDone)
		s.read(stop, tr, &rrep)
	}()
	s.write(tr, rep)
	close(stop)
	<-readerDone
	rep.merge(&rrep)
	after, err := c.vars()
	if err != nil {
		return err
	}
	s.deltas = map[string]float64{}
	for k, v := range after {
		s.deltas[k] = v - before[k]
	}
	return nil
}

// finalReads is the fixed probe set taken once the writer is done: it is
// checked against the oracle and must survive every restart unchanged.
func (s *streamStage) finalReads() []readReq {
	return readMix(s.win, s.plan.finals, streamShares, 0, s.seed^0xF17A1)
}

// ask issues the final reads against d and returns the bodies.
func (s *streamStage) ask(d *daemon, final grid.Spec, reqs []readReq) ([][]byte, error) {
	c := newClient(d.base)
	defer c.close()
	winT0 := s.win.Domain.T0 + float64(final.OT)*s.win.TRes
	out := make([][]byte, len(reqs))
	for i, q := range reqs {
		code, body, err := c.do(http.MethodGet, q.path(s.params, s.win, winT0), "", nil)
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("final read %c: HTTP %d, %v", q.kind, code, err)
		}
		out[i] = append([]byte(nil), body...)
	}
	return out, nil
}

// points asks the daemon how many events the stream holds.
func (s *streamStage) points(d *daemon) (int, error) {
	c := newClient(d.base)
	defer c.close()
	var out struct {
		Streams []struct {
			Dataset string `json:"dataset"`
			Points  int    `json:"points"`
		} `json:"streams"`
	}
	if err := c.call(http.MethodGet, "/v1/streams", "", nil, &out); err != nil {
		return 0, err
	}
	for _, st := range out.Streams {
		if st.Dataset == s.id {
			return st.Points, nil
		}
	}
	return 0, fmt.Errorf("stream %s is not listed", s.id)
}

// check is the stream correctness gate. The oracle is a fresh
// stkde.Stream on the window's final position fed exactly the events the
// script leaves live (worked out from the script, not asked of the
// engine): the served point count, region masses, hotspots and voxel
// densities must match it. The daemon is then shut down and restarted
// plan.recovers times; each restart is timed and must answer the same
// reads as before the shutdown.
func (s *streamStage) check(rep *report) error {
	// The open loop is only honest if the generator itself keeps to the
	// schedule: lateness with no request outstanding is the benchmark's
	// doing, not the server's, and a run where that is the norm measured
	// the load generator.
	period := 1 / s.plan.readHz
	rep.expect(!(s.lateGen.median() > period),
		"open-loop reader sent late by itself: median %.2f ms with no request outstanding (period %.0f ms)",
		s.lateGen.median()*1e3, period*1e3)
	final, live := liveAfter(s.win, s.script)
	oracle, err := stkde.NewStream(final, stkde.StreamConfig{})
	if err != nil {
		return err
	}
	defer oracle.Release()
	oracle.Add(live...)
	snap, err := oracle.Snapshot(nil)
	if err != nil {
		return err
	}

	n, err := s.points(s.d)
	if err != nil {
		return err
	}
	rep.expect(n == len(live), "stream holds %d events, the script leaves %d live", n, len(live))
	reqs := s.finalReads()
	want, err := s.ask(s.d, final, reqs)
	if err != nil {
		return err
	}
	for i, q := range reqs {
		checkRead(q, want[i], snap, rep)
	}

	if err := s.d.stop(); err != nil {
		return err
	}
	s.d = nil
	for r := 0; r < s.plan.recovers; r++ {
		d, took, err := startDaemon(s.cfg, true)
		if err != nil {
			return err
		}
		s.recoverS = append(s.recoverS, took.Seconds())
		got, aerr := s.ask(d, final, reqs)
		if aerr == nil {
			var m int
			if m, aerr = s.points(d); aerr == nil {
				rep.expect(m == n, "restart %d holds %d events, %d before the shutdown", r, m, n)
			}
		}
		if err := d.stop(); err != nil {
			return err
		}
		runtime.GC() // a real restart is a fresh process: drop the last one's heap
		if aerr != nil {
			return aerr
		}
		for i, q := range reqs {
			rep.expect(sameAnswer(q, got[i], want[i]), "restart %d answers read %d (%c) differently than before the shutdown", r, i, q.kind)
		}
	}
	return nil
}

// sameAnswer compares two bodies of the same read to ≤1e-9.
func sameAnswer(q readReq, a, b []byte) bool {
	switch q.kind {
	case opQuery:
		var x, y queryJSON
		return json.Unmarshal(a, &x) == nil && json.Unmarshal(b, &y) == nil && closeRel(x.Density, y.Density, 1e-9)
	case opRegion:
		var x, y regionJSON
		return json.Unmarshal(a, &x) == nil && json.Unmarshal(b, &y) == nil && closeRel(x.Mass, y.Mass, 1e-9)
	default:
		var x, y hotspotsJSON
		if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil || len(x.Hotspots) != len(y.Hotspots) {
			return false
		}
		for i := range x.Hotspots {
			if !closeRel(x.Hotspots[i].Density, y.Hotspots[i].Density, 1e-9) {
				return false
			}
		}
		return true
	}
}

// teardown stops whatever is still running and removes the journal.
func (s *streamStage) teardown() error {
	var err error
	if s.d != nil {
		err = s.d.stop()
		s.d = nil
	}
	for _, rk := range s.ranks {
		rk.Close()
	}
	s.ranks = nil
	if s.walDir != "" {
		os.RemoveAll(s.walDir)
		s.walDir = ""
	}
	return err
}

// endToEnd: the answer a stream's clients wait for is the advance — every
// reader and the writer queue behind it for its whole length, once a layer;
// the work a second buys is events acknowledged, advances included. The
// reader's own median is not here: beside a writer that keeps the stream
// lock busy it multiplies whatever the advance does (a tenth more advance
// was a quarter more read latency from run to run), which makes it a
// per-layer metric (serve.read_p50_ms).
func (s *streamStage) endToEnd(m metrics) {
	m["latency_p50_ms"] = s.advanceLat.median() * 1e3
	m["throughput_per_s"] = float64(s.eventsAcked) / s.writerWall.Seconds()
}

// layer reports the stage under the names the issue gave its numbers; the
// reader's only when the stage is the workload's source of read metrics.
func (s *streamStage) layer(m metrics, reads bool) {
	m["serve.ingest_events_per_s"] = float64(s.eventsAcked) / s.writerWall.Seconds()
	m["serve.advance_p50_ms"] = s.advanceLat.median() * 1e3
	m["serve.recover_s"] = s.recoverS.median()
	if reads {
		m["serve.read_rps"] = float64(len(s.readLat)) / s.readerWall.Seconds()
		m["serve.read_p50_ms"] = s.readLat.median() * 1e3
	}
}
