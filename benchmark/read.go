package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/gio"
	"repro/internal/grid"
	"repro/stkde"
)

// readPlan sizes a serve stage: one static dataset behind the daemon, and
// closed-loop clients issuing the read mix against its cached cube.
type readPlan struct {
	clients int // closed-loop connections
	gets    int // timed GETs per client
	warm    int // discarded GETs per client before timing
	verify  int // responses re-requested and checked after timing
}

// Shares of /v1/query and /v1/region in the read mix; /v1/hotspots is the
// rest.
var readShares = [2]float64{0.7, 0.2}

// readStage drives the daemon's small-request read path: HTTP decode,
// tenant/admission check, cache lookup, pyramid, JSON encode. The engine
// estimates once, during set-up.
type readStage struct {
	plan readPlan
	seed uint64
	gen  func() (instance, error) // the dataset to serve, generated in set-up
	inst instance
	ref  *grid.Grid // in-process oracle cube of inst, estimated on first use

	d      *daemon
	params string
	reqs   [][]readReq // per client
	paths  [][]string
	lat    sample // seconds, every timed GET
	wall   time.Duration
	deltas map[string]float64 // /debug/vars over the timed section
	hash   opHash
}

// jobJSON is the part of the estimate/job responses the stage reads.
type jobJSON struct {
	Job   string `json:"job"`
	State string `json:"state"`
	Error string `json:"error"`
}

// generate derives the request lists from the seed.
func (s *readStage) generate() {
	n := s.plan.warm + s.plan.gets
	s.reqs = make([][]readReq, s.plan.clients)
	var all []readReq
	for i := range s.reqs {
		s.reqs[i] = readMix(s.inst.spec, n, readShares, 0, s.seed+uint64(i)*0x9E37)
		all = append(all, s.reqs[i]...)
	}
	s.hash = hashOps(nil, all, s.inst.pts)
}

// setup boots the daemon, uploads the dataset as CSV, has the cube
// estimated and its pyramid built, and warms each client's connection.
func (s *readStage) setup() (err error) {
	if err = s.teardown(); err != nil {
		return err
	}
	if s.inst, err = s.gen(); err != nil {
		return err
	}
	s.generate()
	spec := s.inst.spec
	var csv bytes.Buffer
	if err := gio.WritePoints(&csv, s.inst.pts); err != nil {
		return err
	}
	d, _, err := startDaemon(stkde.ServeConfig{}, false)
	if err != nil {
		return err
	}
	s.d = d
	c := newClient(d.base)
	defer c.close()

	var ds struct {
		Dataset string `json:"dataset"`
	}
	if err := c.call(http.MethodPost, "/v1/datasets", "text/csv", csv.Bytes(), &ds); err != nil {
		return err
	}
	s.params = specParams(ds.Dataset, spec)

	body, err := json.Marshal(map[string]any{
		"dataset": ds.Dataset, "algorithm": algSeq,
		"sres": spec.SRes, "tres": spec.TRes, "hs": spec.HS, "ht": spec.HT,
		"domain": map[string]float64{
			"x0": spec.Domain.X0, "y0": spec.Domain.Y0, "t0": spec.Domain.T0,
			"gx": spec.Domain.GX, "gy": spec.Domain.GY, "gt": spec.Domain.GT,
		},
	})
	if err != nil {
		return err
	}
	var job jobJSON
	if err := c.call(http.MethodPost, "/v1/estimate", "application/json", body, &job); err != nil {
		return err
	}
	for deadline := time.Now().Add(2 * time.Minute); job.State == "running"; {
		if time.Now().After(deadline) {
			return fmt.Errorf("cold estimation did not finish")
		}
		time.Sleep(time.Millisecond)
		if err := c.call(http.MethodGet, "/v1/jobs/"+job.Job, "", nil, &job); err != nil {
			return err
		}
	}
	if job.State != "done" {
		return fmt.Errorf("cold estimation %s: %s", job.State, job.Error)
	}
	// The first region request builds the pyramid.
	whole := readReq{kind: opRegion, box: spec.Bounds()}
	if err := c.call(http.MethodGet, whole.path(s.params, spec, spec.Domain.T0), "", nil, nil); err != nil {
		return err
	}
	s.paths = make([][]string, len(s.reqs))
	for i, reqs := range s.reqs {
		s.paths[i] = make([]string, len(reqs))
		for j, q := range reqs {
			s.paths[i][j] = q.path(s.params, spec, spec.Domain.T0)
		}
	}
	return s.loop(s.plan.warm, 0, nil, nil)
}

// loop runs requests [from, from+n) of every client's list concurrently,
// one closed loop per client.
func (s *readStage) loop(n, from int, tr *tracer, rep *report) error {
	lats := make([]sample, s.plan.clients)
	errs := make([]error, s.plan.clients)
	fails := make([]int, s.plan.clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < s.plan.clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(s.d.base)
			defer c.close()
			lat := make(sample, 0, n)
			for j := from; j < from+n; j++ {
				a := time.Now()
				code, _, err := c.do(http.MethodGet, s.paths[i][j], "", nil)
				b := time.Now()
				if err != nil || code != http.StatusOK {
					fails[i]++
					if errs[i] == nil {
						errs[i] = fmt.Errorf("GET %s: HTTP %d, %v", shortPath(s.paths[i][j]), code, err)
					}
					continue
				}
				lat = append(lat, b.Sub(a).Seconds())
				if tr != nil {
					tr.add(0, tr.newOp(), "http:"+string(s.reqs[i][j].kind), a, b, 0)
				}
			}
			lats[i] = lat
		}(i)
	}
	wg.Wait()
	if rep == nil { // warm-up: only errors matter
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	s.wall = time.Since(t0)
	s.lat = nil
	for i := range lats {
		s.lat = append(s.lat, lats[i]...)
		rep.ops(n, fails[i], errs[i])
	}
	return nil
}

func (s *readStage) measure(tr *tracer, rep *report) error {
	c := newClient(s.d.base)
	defer c.close()
	before, err := c.vars()
	if err != nil {
		return err
	}
	if err := s.loop(s.plan.gets, s.plan.warm, tr, rep); err != nil {
		return err
	}
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

// Wire shapes of the three read responses.
type (
	queryJSON struct {
		Density float64 `json:"density"`
		Source  string  `json:"source"`
	}
	regionJSON struct {
		Mass   float64 `json:"mass"`
		Source string  `json:"source"`
	}
	hotspotsJSON struct {
		Hotspots []struct {
			Voxel   [3]int  `json:"voxel"`
			Density float64 `json:"density"`
		} `json:"hotspots"`
		Source string `json:"source"`
	}
)

// checkRead compares one response body with the answer computed from g
// (the oracle cube, in the frame the request was asked in).
func checkRead(q readReq, body []byte, g *grid.Grid, rep *report) {
	switch q.kind {
	case opQuery:
		var out queryJSON
		err := json.Unmarshal(body, &out)
		want := g.At(q.X, q.Y, q.T)
		rep.expect(err == nil && closeRel(out.Density, want, 1e-9),
			"query voxel (%d,%d,%d): served %g (%s), oracle %g, %v", q.X, q.Y, q.T, out.Density, out.Source, want, err)
	case opRegion:
		var out regionJSON
		err := json.Unmarshal(body, &out)
		want := g.BoxMass(q.box)
		rep.expect(err == nil && closeRel(out.Mass, want, 1e-9),
			"region %+v: served %g (%s), oracle %g, %v", q.box, out.Mass, out.Source, want, err)
	case opHotspot:
		var out hotspotsJSON
		err := json.Unmarshal(body, &out)
		want := g.TopK(q.k)
		ok := err == nil && len(out.Hotspots) == len(want)
		for i := 0; ok && i < len(want); i++ {
			ok = closeRel(out.Hotspots[i].Density, want[i].V, 1e-9)
		}
		rep.expect(ok, "hotspots k=%d: served %d entries (%s) that do not match the oracle's, %v",
			q.k, len(out.Hotspots), out.Source, err)
	}
}

// oracle is the cube of the served events, estimated in-process.
func (s *readStage) oracle() (*grid.Grid, error) {
	if s.ref == nil {
		res, err := stkde.Estimate(algSeq, s.inst.pts, s.inst.spec, stkde.Options{Threads: 1})
		if err != nil {
			return nil, err
		}
		s.ref = res.Grid
	}
	return s.ref, nil
}

// check re-requests the first plan.verify reads of client 0 and compares
// every answer with Grid.At / Grid.BoxMass / Grid.TopK on the oracle.
func (s *readStage) check(rep *report) error {
	ref, err := s.oracle()
	if err != nil {
		return err
	}
	c := newClient(s.d.base)
	defer c.close()
	for j := 0; j < s.plan.verify && j < len(s.reqs[0]); j++ {
		code, body, err := c.do(http.MethodGet, s.paths[0][j], "", nil)
		if err != nil || code != http.StatusOK {
			rep.ops(1, 1, fmt.Errorf("verify GET %s: HTTP %d, %v", shortPath(s.paths[0][j]), code, err))
			continue
		}
		checkRead(s.reqs[0][j], body, ref, rep)
	}
	return nil
}

func (s *readStage) teardown() error {
	s.ref = nil
	if s.d == nil {
		return nil
	}
	err := s.d.stop()
	s.d = nil
	return err
}

// endToEnd: one answer is one GET; the work a second buys is GETs answered.
func (s *readStage) endToEnd(m metrics) {
	m["latency_p50_ms"] = s.lat.median() * 1e3
	m["throughput_per_s"] = float64(len(s.lat)) / s.wall.Seconds()
}

func (s *readStage) layer(m metrics) {
	m["serve.read_rps"] = float64(len(s.lat)) / s.wall.Seconds()
	m["serve.read_p50_ms"] = s.lat.median() * 1e3
}
