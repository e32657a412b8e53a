package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/grid"
)

// run is one workload run in this process.
type run struct {
	o     options
	p     plan
	rep   report
	notes []string

	cubeSpec grid.Spec // the discretization the cube stage estimates on
	cube     *cubeStage
	read     *readStage // nil on a stream workload: its reads are the stream's
	stream   *streamStage
	stages   map[string]stage
}

func newRun(o options) (*run, error) {
	seconds := o.seconds
	if o.trace != 0 {
		// The traced run measures its own stage twice (see traced).
		seconds /= 2
	}
	p, err := planFor(o.workload, seconds, o.smoke)
	if err != nil {
		return nil, err
	}
	win, err := p.window.spec()
	if err != nil {
		return nil, err
	}
	r := &run{o: o, p: p, cubeSpec: win}
	if p.native == "cube" {
		if r.cubeSpec, err = p.cubeShape.spec(); err != nil {
			return nil, err
		}
	}
	r.cube = &cubeStage{plan: p.cube, seed: o.seed, gen: r.cubeInput}
	r.stream = &streamStage{plan: p.stream, win: win, seed: o.seed, outDir: o.outDir}
	r.stages = map[string]stage{"cube": r.cube, "stream": r.stream}
	if p.read != nil {
		r.read = &readStage{plan: *p.read, seed: o.seed,
			gen: func() (instance, error) { return p.window.instance(p.readN, o.seed) }}
		r.stages["read"] = r.read
	}
	return r, nil
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// stageOrder puts the workload's own stage first, so it meets the process
// in the same state on every run.
func (r *run) stageOrder() []string {
	switch r.p.native {
	case "read":
		return []string{"read", "cube", "stream"}
	case "stream":
		return []string{"stream", "cube"}
	}
	return []string{"cube", "read", "stream"}
}

// servedCubeEvents caps the event set a daemon workload's cube stage
// estimates: enough work to time, little enough to repeat 25 times.
const servedCubeEvents = 20000

// cubeInput is the event set the cube stage estimates: the catalog shape
// for a batch workload, otherwise the data the workload's daemon serves —
// the dataset behind the reads, or the stream's events in the window
// length around the middle of the script, where the season peaks.
func (r *run) cubeInput() (instance, error) {
	switch r.p.native {
	case "cube":
		return r.p.cubeShape.instance(r.p.cubeN, r.o.seed)
	case "read":
		inst := r.read.inst
		inst.pts = inst.pts[:min(len(inst.pts), servedCubeEvents)]
		return inst, nil
	}
	win := r.stream.win
	win.Domain.T0 += win.Domain.GT * float64(r.p.stream.windows-1) / 2
	var pts []grid.Point
	for _, op := range r.stream.script {
		for _, p := range op.events {
			if win.Domain.Contains(p) && len(pts) < servedCubeEvents {
				pts = append(pts, p)
			}
		}
	}
	return instance{name: "peak-window", spec: win, pts: pts}, nil
}

// stage is one of the three things a run does: estimate cubes (cube.go),
// serve reads (read.go), run a live stream (stream.go). setup may be called
// again: it first lets go of whatever the last call built.
type stage interface {
	setup() error
	measure(tr *tracer, rep *report) error
	check(rep *report) error
	teardown() error
}

// stage runs one stage start to finish: set-up (repeats times), the
// measured section, extra (the traced run's layer probes,
// which need the stage's state and its daemon still up), the correctness
// gate, teardown. It returns the set-up times.
func (r *run) stage(name string, repeats int, tr *tracer, extra func() error) (sample, error) {
	st := r.stages[name]
	if name == "cube" {
		defer pinHeap()()
	}
	var took sample
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		if err := st.setup(); err != nil {
			st.teardown()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	err := st.measure(tr, &r.rep)
	if err == nil && extra != nil {
		err = extra()
	}
	if err == nil {
		err = st.check(&r.rep)
	}
	if terr := st.teardown(); err == nil {
		err = terr
	}
	// Hand the stage's pages back now, so the next stage neither inherits
	// them nor has the scavenger returning them under its feet.
	debug.FreeOSMemory()
	if err != nil {
		return nil, fmt.Errorf("%s stage: %w", name, err)
	}
	return took, nil
}

// plain is the untraced run: the workload's own stage and nothing beside
// it, so the whole run measures the rows it reports.
func (r *run) plain() (metrics, error) {
	name := r.p.native
	t0 := time.Now()
	setups, err := r.stage(name, r.p.setups, nil, nil)
	if err != nil {
		return nil, err
	}
	m := metrics{"setup_s": setups.median(), "peak_rss_mb": peakRSSMB()}
	switch name {
	case "cube":
		// A batch workload's high-water mark was read earlier (see
		// cubeStage.setup).
		m["peak_rss_mb"] = r.cube.firstPairMB
		r.cube.endToEnd(m)
	case "read":
		r.read.endToEnd(m)
	default:
		r.stream.endToEnd(m)
	}
	r.notef("stage %-6s %6.2fs wall, set-ups %.3g s, peak RSS at exit %.0f MB", name, time.Since(t0).Seconds(), []float64(setups), peakRSSMB())
	r.summarize()
	return m, nil
}

// summarize adds the small-sample detail the result line has no room for:
// quartiles and counts behind each median, and the percentile each tail
// can support.
func (r *run) summarize() {
	q := func(name string, s sample, unit float64, u string) {
		if len(s) == 0 {
			return
		}
		r.notef("%-22s n=%-7d q1 %.4g  median %.4g  q3 %.4g %s  (highest supported percentile: p%g)",
			name, len(s), s.quantile(0.25)*unit, s.median()*unit, s.quantile(0.75)*unit, u, s.highestSupported())
	}
	q("cube seq", r.cube.seq, 1, "s")
	q("cube par", r.cube.par, 1, "s")
	if r.read != nil {
		q("read latency", r.read.lat, 1e3, "ms")
	}
	q("stream read latency", r.stream.readLat, 1e3, "ms")
	for _, k := range []byte{opQuery, opRegion, opHotspot} {
		var svc sample
		for i, kind := range r.stream.readKind {
			if kind == k {
				svc = append(svc, r.stream.readSvc[i])
			}
		}
		q("  send→reply, kind "+string(k), svc, 1e3, "ms")
	}
	q("ingest batch latency", r.stream.ingestLat, 1e3, "ms")
	q("advance latency", r.stream.advanceLat, 1e3, "ms")
	if p90, _ := r.stream.advanceLat.tail(90); len(r.stream.advanceLat) > 0 {
		r.notef("%-22s p90 %.4g ms", "advance latency", p90*1e3)
	}
	q("recover", r.stream.recoverS, 1, "s")
	q("reader lateness", r.stream.late, 1e3, "ms")
}
