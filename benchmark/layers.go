package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/simd"
	"repro/internal/wal"
	"repro/stkde"
)

// perLayer lists what the traced run reports: one block per package of the
// repository, measured from outside by timing calls into the package's
// exported functions (spans from the benchmark's own files) or read from
// counters the system already exports. They carry no bound. README.md
// says which end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	// gio: the CSV codec under every upload and ingest.
	{Name: "gio.read_points_us_per_event", Unit: "us", Better: "lower"},
	{Name: "gio.bytes_per_event", Unit: "B", Better: "lower"},
	// grid: allocation and first touch, locality sort, analytics index.
	{Name: "grid.new_grid_s", Unit: "s", Better: "lower"},
	{Name: "grid.new_grid_par_s", Unit: "s", Better: "lower"},
	{Name: "grid.first_touch_s", Unit: "s", Better: "lower"},
	{Name: "grid.sort_morton_s", Unit: "s", Better: "lower"},
	{Name: "grid.pyramid_build_s", Unit: "s", Better: "lower"},
	{Name: "grid.pyramid_boxmass_us", Unit: "us", Better: "lower"},
	{Name: "grid.pyramid_topk_us", Unit: "us", Better: "lower"},
	// simd / kernel: the span primitives at this workload's span length.
	{Name: "simd.muladdrows_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "simd.filldisk_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "simd.add_ns_per_elem", Unit: "ns", Better: "lower"},
	// core, batch: the engine's own phase breakdown and work counts.
	{Name: "core.seq.init_s", Unit: "s", Better: "lower"},
	{Name: "core.seq.bin_s", Unit: "s", Better: "lower"},
	{Name: "core.seq.compute_s", Unit: "s", Better: "lower"},
	{Name: "core.par.init_s", Unit: "s", Better: "lower"},
	{Name: "core.par.bin_s", Unit: "s", Better: "lower"},
	{Name: "core.par.plan_s", Unit: "s", Better: "lower"},
	{Name: "core.par.compute_s", Unit: "s", Better: "lower"},
	{Name: "core.par.reduce_s", Unit: "s", Better: "lower"},
	{Name: "core.updates", Unit: "count", Better: "lower"},
	{Name: "core.par.updates", Unit: "count", Better: "lower"},
	{Name: "core.par.point_assignments", Unit: "count", Better: "lower"},
	{Name: "core.updates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.query_at_us", Unit: "us", Better: "lower"},
	{Name: "core.cube_seq_s", Unit: "s", Better: "lower"},
	{Name: "core.cube_par_s", Unit: "s", Better: "lower"},
	// core, stream: the sliding-window engine driven directly.
	{Name: "core.updater_add_us_per_event", Unit: "us", Better: "lower"},
	{Name: "core.updater_advance_ms", Unit: "ms", Better: "lower"},
	{Name: "core.updater_boxmass_us", Unit: "us", Better: "lower"},
	{Name: "core.updater_topk_us", Unit: "us", Better: "lower"},
	{Name: "core.updater_compactions", Unit: "count", Better: "lower"},
	{Name: "core.sketch_rebuilds", Unit: "count", Better: "lower"},
	// par / sched / stencil: what the parallel strategy buys and why.
	{Name: "par.speedup", Unit: "ratio", Better: "higher"},
	{Name: "par.efficiency", Unit: "ratio", Better: "higher"},
	{Name: "sched.cells", Unit: "count", Better: "higher"},
	{Name: "sched.colors", Unit: "count", Better: "lower"},
	{Name: "sched.critical_path_rel", Unit: "ratio", Better: "lower"},
	{Name: "core.alg.pb-sym-dr_s", Unit: "s", Better: "lower"},
	{Name: "core.alg.pb-sym-dd_s", Unit: "s", Better: "lower"},
	{Name: "core.alg.pb-sym-pd_s", Unit: "s", Better: "lower"},
	{Name: "core.alg.pb-sym-pd-rep_s", Unit: "s", Better: "lower"},
	{Name: "core.alg.pb-sym-pd-sched-rep_s", Unit: "s", Better: "lower"},
	// model: predicted over measured; it prices admission, so 1 is right.
	{Name: "model.calibrate_s", Unit: "s", Better: "lower"},
	{Name: "model.predict_seq_ratio", Unit: "ratio", Better: "lower"},
	{Name: "model.predict_par_ratio", Unit: "ratio", Better: "lower"},
	{Name: "model.pick_rank", Unit: "count", Better: "lower"},
	{Name: "model.ingest_ratio", Unit: "ratio", Better: "lower"},
	{Name: "model.advance_ratio", Unit: "ratio", Better: "lower"},
	// wal: the journal driven directly with the script's records.
	{Name: "wal.append_us_per_record", Unit: "us", Better: "lower"},
	{Name: "wal.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "wal.snapshot_write_s", Unit: "s", Better: "lower"},
	{Name: "wal.replay_events_per_s", Unit: "1/s", Better: "higher"},
	// dist: the script replayed through Cluster.NewStream on TCP ranks.
	{Name: "dist.ingest_us_per_event", Unit: "us", Better: "lower"},
	{Name: "dist.advance_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.gather_boxmass_us", Unit: "us", Better: "lower"},
	{Name: "dist.gather_topk_us", Unit: "us", Better: "lower"},
	{Name: "dist.bytes_per_ingest_event", Unit: "B", Better: "lower"},
	{Name: "dist.bytes_per_gather", Unit: "B", Better: "lower"},
	{Name: "dist.halo_replication", Unit: "ratio", Better: "lower"},
	// serve: what the daemon adds around the layers, and its own counters
	// over the measured section.
	{Name: "serve.read_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.ingest_overhead_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "serve.read_rps", Unit: "1/s", Better: "higher"},
	{Name: "serve.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.ingest_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.ingest_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.advance_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.recover_s", Unit: "s", Better: "lower"},
	{Name: "serve.read_idle_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.read_behind_write_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.estimations", Unit: "count", Better: "lower"},
	{Name: "serve.cache_hits", Unit: "count", Better: "higher"},
	{Name: "serve.cache_misses", Unit: "count", Better: "lower"},
	{Name: "serve.sketch_hits", Unit: "count", Better: "higher"},
	{Name: "serve.sketch_rebuilds", Unit: "count", Better: "lower"},
	{Name: "serve.stream_invalidations", Unit: "count", Better: "lower"},
	{Name: "serve.wal_appends", Unit: "count", Better: "lower"},
	{Name: "serve.wal_checkpoints", Unit: "count", Better: "lower"},
	{Name: "serve.admission_admitted", Unit: "count", Better: "higher"},
	{Name: "serve.admission_shed", Unit: "count", Better: "lower"},
	// the benchmark itself.
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.failed_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// varsOf maps the serve.* counter metrics to the daemon's /debug/vars keys.
var varsOf = map[string]string{
	"serve.estimations": "estimations", "serve.cache_hits": "cache_hits", "serve.cache_misses": "cache_misses",
	"serve.sketch_hits": "sketch_hits", "serve.sketch_rebuilds": "sketch_rebuilds",
	"serve.stream_invalidations": "stream_invalidations", "serve.wal_appends": "wal_appends",
	"serve.wal_checkpoints": "wal_checkpoints", "serve.admission_admitted": "admission_admitted",
	"serve.admission_shed": "admission_shed",
}

// probe times fn as a standalone root span.
func probe(tr *tracer, name string, fn func()) float64 {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	tr.add(0, tr.newOp(), "probe:"+name, t0, t1, 0)
	return t1.Sub(t0).Seconds()
}

// probes runs before (if any) untimed and fn timed, n times, and returns
// the median seconds.
func probes(tr *tracer, name string, n int, before, fn func()) float64 {
	var s sample
	for i := 0; i < n; i++ {
		if before != nil {
			before()
		}
		s = append(s, probe(tr, name, fn))
	}
	return s.median()
}

// section is the wall time of a stage's measured section.
func (r *run) section(name string) float64 {
	switch name {
	case "cube":
		return r.cube.seq.sum() + r.cube.par.sum()
	case "read":
		return r.read.wall.Seconds()
	}
	return r.stream.writerWall.Seconds()
}

// traced is the traced run: the workload's own stage once untraced and
// once traced at half the nominal length (their difference is the tracing
// overhead), the control stages once traced, pass B and the layer probes
// after each stage's measured section, and the spans written out at the
// end.
func (r *run) traced() (metrics, error) {
	tr := newTracer()
	m := metrics{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}

	// The cost of fresh pages, taken once while the heap is still small:
	// the first grid this process allocates.
	m["grid.first_touch_s"] = probe(tr, "grid.first_touch", func() {
		if g, err := grid.NewGridP(r.cubeSpec, nil, 1); err == nil {
			g.Release()
		}
	})
	runtime.GC()

	layers := map[string]func() error{
		"cube":   func() error { return r.cubeLayers(tr, m) },
		"read":   func() error { return r.readLayers(tr, m) },
		"stream": func() error { return r.streamLayers(tr, m) },
	}
	var untraced float64
	for _, name := range r.stageOrder() {
		if name == r.p.native {
			if _, err := r.stage(name, 1, nil, nil); err != nil {
				return nil, err
			}
			untraced = r.section(name)
		}
		if _, err := r.stage(name, 1, tr, layers[name]); err != nil {
			return nil, err
		}
		if name == r.p.native {
			m["trace.overhead_share"] = (r.section(name) - untraced) / untraced
		}
	}

	// The daemon's own counters over the measured sections: the workload's
	// own stage when that is a daemon stage, else both control stages.
	for name, key := range varsOf {
		switch r.p.native {
		case "read":
			m[name] = r.read.deltas[key]
		case "stream":
			m[name] = r.stream.deltas[key]
		default:
			m[name] = r.read.deltas[key] + r.stream.deltas[key]
		}
	}
	// Each stage's user-facing numbers under the names the issue gave them
	// (the plain run reports the workload's own as latency_p50_ms and
	// throughput_per_s), then the two tails that are too unsteady on a
	// shared box for any gate (see README.md): reads from the stage the
	// workload's read metrics come from, ingest from the stream stage.
	r.cube.layer(m)
	if r.read != nil {
		r.read.layer(m)
	}
	r.stream.layer(m, r.read == nil)
	reads := r.stream.readLat
	if r.read != nil {
		reads = r.read.lat
	}
	p99, _ := reads.tail(99)
	m["serve.read_p99_ms"] = p99 * 1e3
	p99, _ = r.stream.ingestLat.tail(99)
	m["serve.ingest_p99_ms"] = p99 * 1e3
	late, _ := r.stream.late.tail(99)
	m["loadgen.late_p99_ms"] = late * 1e3
	if r.rep.attempted > 0 {
		m["loadgen.failed_share"] = float64(r.rep.failed) / float64(r.rep.attempted)
	}

	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[name] = 0 // a layer this run never exercised (an empty sample)
		}
	}

	path := filepath.Join(r.o.outDir, r.o.workload+".trace.jsonl")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	r.notef("%d spans written to %s", len(spans), path)
	r.notef("self time by span name (a span's duration minus what its children cover):")
	self := selfByName(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if a, b := self[names[i]], self[names[j]]; a != b {
			return a > b
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		r.notef("  %-28s %10.3f ms  n=%d", n, self[n].Seconds()*1e3, len(durations(spans, n)))
	}
	r.summarize()
	return m, nil
}

// tableAlgs is the one-rep strategy table next to the two gated calls.
var tableAlgs = []string{
	core.AlgPBSYMDR, core.AlgPBSYMDD, core.AlgPBSYMPD, core.AlgPBSYMPDREP, core.AlgPBSYMPDSCHREP,
}

// cubeLayers fills the batch-side layer metrics from the cube stage's
// traced reps and standalone probes on the same instance.
func (r *run) cubeLayers(tr *tracer, m metrics) error {
	c := r.cube
	spec, pts := c.inst.spec, c.inst.pts
	spans := tr.snapshot()
	for _, ph := range []string{"seq.init", "seq.bin", "seq.compute", "par.init", "par.bin", "par.plan", "par.compute", "par.reduce"} {
		if d := durations(spans, "core."+ph); len(d) > 0 {
			m["core."+ph+"_s"] = d.median()
		}
	}
	seq, par := c.seqRes.Stats, c.parRes.Stats
	m["core.updates"] = float64(seq.Updates)
	m["core.par.updates"] = float64(par.Updates)
	m["core.par.point_assignments"] = float64(par.PointAssignments)
	if cs := m["core.seq.compute_s"]; cs > 0 {
		m["core.updates_per_s"] = float64(seq.Updates) / cs
	}
	m["sched.cells"] = float64(par.Cells)
	m["sched.colors"] = float64(par.Colors)
	m["sched.critical_path_rel"] = par.CriticalPathRel
	m["par.speedup"] = c.seq.median() / c.par.median()
	m["par.efficiency"] = m["par.speedup"] / float64(nproc())

	measured := map[string]float64{algSeq: c.seq.median(), algPar: c.par.median()}
	for _, alg := range tableAlgs {
		alg := alg
		var err error
		runtime.GC()
		measured[alg] = probe(tr, "estimate:"+alg, func() {
			_, err = stkde.Estimate(alg, pts, spec, stkde.Options{Threads: nproc(), Decomp: parDecomp})
		})
		if err != nil {
			return err
		}
		m["core.alg."+alg+"_s"] = measured[alg]
	}

	// grid: allocation on pages the process owns (the grid of the call
	// before is collected first, untimed), serial and parallel.
	alloc := func(p int) func() {
		return func() {
			if g, err := grid.NewGridP(spec, nil, p); err == nil {
				g.Release()
			}
		}
	}
	alloc(1)()
	m["grid.new_grid_s"] = probes(tr, "grid.new_grid", 5, runtime.GC, alloc(1))
	m["grid.new_grid_par_s"] = probes(tr, "grid.new_grid_par", 5, runtime.GC, alloc(nproc()))
	m["grid.sort_morton_s"] = probes(tr, "grid.sort_morton", 5, nil, func() { grid.SortByMorton(pts, spec) })

	// simd: the three span primitives on rows of this instance's span
	// shape — a disk column of 2·Hs+1 rows times a bar of 2·Ht+1 layers.
	rows, bn := 2*spec.Hs+1, 2*spec.Ht+1
	stride := max(spec.Gt, bn)
	data := make([]float64, rows*stride)
	ks, bar, w2 := make([]float64, rows), make([]float64, bn), make([]float64, rows)
	for i := range ks {
		ks[i], w2[i] = 1e-3*float64(i+1), float64(i)/float64(2*rows)
	}
	for i := range bar {
		bar[i] = 0.5
	}
	const loops = 20000
	perElem := func(name string, elems int, fn func()) float64 {
		fn()
		return probes(tr, name, 5, nil, func() {
			for i := 0; i < loops; i++ {
				fn()
			}
		}) / float64(loops*elems) * 1e9
	}
	m["simd.muladdrows_ns_per_elem"] = perElem("simd.muladdrows", rows*bn, func() { simd.MulAddRows(data, stride, ks, bar) })
	m["simd.filldisk_ns_per_elem"] = perElem("simd.filldisk", rows, func() { simd.FillDiskPoly(ks, w2, 0.1, 0.6366, 1e-3, 1) })
	m["simd.add_ns_per_elem"] = perElem("simd.add", rows*bn, func() { simd.Add(data[:rows*bn], data[rows*bn:2*rows*bn]) })

	// core: the exact point evaluator, for reference.
	q := stkde.NewQuery(pts, spec, stkde.Options{})
	const ats = 256
	m["core.query_at_us"] = probe(tr, "core.query_at", func() {
		for i := 0; i < ats; i++ {
			p := pts[i*len(pts)/ats]
			q.At(p.X, p.Y, p.T)
		}
	}) / ats * 1e6

	// model: calibration cost, and predicted over measured for the two
	// gated calls and for the strategy it would pick.
	var mach model.Machine
	m["model.calibrate_s"] = probe(tr, "model.calibrate", func() { mach = model.Calibrate(nproc(), 0) })
	var pick string
	var preds []model.Prediction
	probe(tr, "model.predict", func() { pick, preds = model.Pick(model.NewWorkload(pts, spec, parDecomp), mach) })
	for _, p := range preds {
		switch p.Algorithm {
		case algSeq:
			m["model.predict_seq_ratio"] = p.Seconds / measured[algSeq]
		case algPar:
			m["model.predict_par_ratio"] = p.Seconds / measured[algPar]
		}
	}
	rank := 1
	for _, s := range measured {
		if s < measured[pick] {
			rank++
		}
	}
	m["model.pick_rank"] = float64(rank)
	if r.read == nil {
		// No static dataset is served: index the cube estimated here.
		if err := pyramidLayers(tr, m, c.seqRes.Grid, readMix(spec, 5000, readShares, 0, r.o.seed)); err != nil {
			return err
		}
	}
	r.notef("model picks %s (rank %d of %d measured strategies)", pick, rank, len(measured))
	r.notef("cube %s: grid %d MiB, LLC %d MiB, n=%d", c.inst.name, spec.Bytes()>>20, llcBytes()>>20, len(pts))
	return nil
}

// pyramidLayers builds g's analytics index and replays reqs against it
// directly (pass B of the static reads).
func pyramidLayers(tr *tracer, m metrics, g *grid.Grid, reqs []readReq) error {
	var py *grid.Pyramid
	var err error
	m["grid.pyramid_build_s"] = probes(tr, "grid.pyramid_build", 3, nil, func() { py, err = grid.NewPyramid(g, nproc(), nil) })
	if err != nil {
		return err
	}
	for _, q := range reqs {
		directRead(tr, q, "grid.pyramid", nil, g, py)
	}
	spans := tr.snapshot()
	m["grid.pyramid_boxmass_us"] = durations(spans, "grid.pyramid.boxmass").median() * 1e6
	m["grid.pyramid_topk_us"] = durations(spans, "grid.pyramid.topk").median() * 1e6
	return nil
}

// readLayers runs pass B for the static reads on a cube of the served
// dataset estimated in-process; pass A minus pass B is the daemon's share
// of a read.
func (r *run) readLayers(tr *tracer, m metrics) error {
	s := r.read
	ref, err := s.oracle()
	if err != nil {
		return err
	}
	if err := pyramidLayers(tr, m, ref, s.reqs[0][:min(len(s.reqs[0]), 20000)]); err != nil {
		return err
	}
	spans := tr.snapshot()
	m["serve.read_overhead_us"] = (opMedian(spans, "http:", "qrh") - opMedian(spans, "direct:", "qrh")) * 1e6
	return nil
}

// opMedian is the median duration of the root spans prefix+k for k in kinds.
func opMedian(spans []span, prefix, kinds string) float64 {
	var all sample
	for _, k := range kinds {
		all = append(all, durations(spans, prefix+string(k))...)
	}
	return all.median()
}

// streamLayers runs, while the stream stage's daemon is still up, the idle
// read probe; then pass B on a local window, the journal probes, and the
// script replayed through a TCP rank cluster.
func (r *run) streamLayers(tr *tracer, m metrics) error {
	s := r.stream
	mark := len(tr.snapshot())

	// Reads with the writer gone: what a read costs when nothing holds the
	// stream lock, and from it the share of pass A's reads that waited.
	const idleReads = 400
	c := newClient(s.d.base)
	var idle sample
	for i := 0; i < idleReads; i++ {
		a := time.Now()
		code, _, err := c.do("GET", s.readPath(i), "", nil)
		if err != nil || code != 200 {
			c.close()
			return fmt.Errorf("idle read: HTTP %d, %v", code, err)
		}
		idle = append(idle, time.Since(a).Seconds())
	}
	c.close()
	m["serve.read_idle_p50_ms"] = idle.median() * 1e3
	behind := 0
	for _, v := range s.readSvc {
		if v > 10*idle.median() {
			behind++
		}
	}
	if len(s.readSvc) > 0 {
		m["serve.read_behind_write_share"] = float64(behind) / float64(len(s.readSvc))
	}

	dir, err := os.MkdirTemp(r.o.outDir, "direct-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	events, bodyBytes := 0, 0
	for _, w := range s.script {
		events += len(w.events)
		if w.kind == opIngest {
			bodyBytes += len(w.body)
		}
	}

	// Pass B, local: the whole script on a core.Updater behind a journal
	// with the daemon's sync policy.
	up, err := core.NewUpdater(s.win, core.UpdaterConfig{Options: core.Options{Threads: 1}})
	if err != nil {
		return err
	}
	defer up.Release()
	log, _, err := wal.Open(filepath.Join(dir, "local"), wal.Options{Sync: wal.SyncInterval})
	if err != nil {
		return err
	}
	if err := directStream(tr, s.script, s.reads, max(len(s.readLat), 60), "core.updater", localWin{up}, log); err != nil {
		log.Close()
		return err
	}
	spans := tr.snapshot()[mark:]
	add := durations(spans, "core.updater.add").sum()
	m["gio.read_points_us_per_event"] = durations(spans, "gio.read_points").sum() / float64(events) * 1e6
	m["gio.bytes_per_event"] = float64(bodyBytes) / float64(events)
	m["core.updater_add_us_per_event"] = add / float64(events) * 1e6
	adv := durations(spans, "core.updater.advance")
	m["core.updater_advance_ms"] = adv.median() * 1e3
	m["core.updater_boxmass_us"] = durations(spans, "core.updater.boxmass").median() * 1e6
	m["core.updater_topk_us"] = durations(spans, "core.updater.topk").median() * 1e6
	m["core.updater_compactions"] = float64(up.Stats().Compactions)
	m["core.sketch_rebuilds"] = float64(up.SketchRebuilds())
	mach := model.Calibrate(1, 0)
	m["model.ingest_ratio"] = mach.IngestSeconds(s.win, events) / add
	m["model.advance_ratio"] = mach.AdvanceSeconds(s.win) / adv.median()
	if r.p.native == "stream" {
		m["serve.read_overhead_us"] = (opMedian(tr.snapshot(), "http:", "qrh") - opMedian(spans, "direct:", "qrh")) * 1e6
	}
	m["serve.ingest_overhead_us_per_batch"] = (opMedian(tr.snapshot(), "http:", "i") - opMedian(spans, "direct:", "i")) * 1e6

	// wal: a checkpoint of the final window, then the journal's own costs
	// on the script's ingest records.
	ust, err := up.State(nil)
	if err == nil {
		m["wal.snapshot_write_s"] = probe(tr, "wal.snapshot_write", func() {
			err = log.WriteSnapshot(&wal.Snapshot{LSN: log.LSN(), Grid: ust.Grid, Live: ust.Live, Residual: ust.Residual, Ops: ust.Ops})
		})
	}
	log.Close()
	if err != nil {
		return err
	}
	if err := r.walProbes(tr, m, filepath.Join(dir, "probe")); err != nil {
		return err
	}
	return r.distReplay(tr, m)
}

// walProbes appends the script's ingest records to a fresh journal with no
// fsync (the append path alone), reopens it (replay), and times the
// commit barrier under the always-fsync policy — that last number is the
// disk's, not the code's.
func (r *run) walProbes(tr *tracer, m metrics, dir string) error {
	var recs []wal.Record
	events := 0
	for _, w := range r.stream.script {
		if w.kind == opIngest && len(recs) < 400 {
			recs = append(recs, wal.Record{Kind: wal.KindIngest, Points: w.events})
			events += len(w.events)
		}
	}
	log, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		return err
	}
	if _, err := log.Append(wal.Record{Kind: wal.KindCreate, Spec: r.stream.win}); err != nil {
		log.Close()
		return err
	}
	took := probe(tr, "wal.append", func() {
		for _, rec := range recs {
			if _, err = log.Append(rec); err != nil {
				return
			}
		}
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m["wal.append_us_per_record"] = took / float64(len(recs)) * 1e6
	var bytes int64
	segs, _ := wal.ListSegments(dir)
	for _, p := range segs {
		if fi, err := os.Stat(p); err == nil {
			bytes += fi.Size()
		}
	}
	m["wal.bytes_per_event"] = float64(bytes) / float64(events)

	var rec wal.Recovered
	took = probe(tr, "wal.replay", func() { log, rec, err = wal.Open(dir, wal.Options{Sync: wal.SyncNone}) })
	if err != nil {
		return err
	}
	log.Close()
	replayed := 0
	for _, t := range rec.Tail {
		replayed += len(t.Points)
	}
	m["wal.replay_events_per_s"] = float64(replayed) / took

	if log, _, err = wal.Open(dir+"-always", wal.Options{Sync: wal.SyncAlways}); err != nil {
		return err
	}
	defer log.Close()
	var commits sample
	for _, rec := range recs[:min(len(recs), 20)] {
		if _, err := log.Append(rec); err != nil {
			return err
		}
		commits = append(commits, probe(tr, "wal.commit_always", func() { err = log.Commit() }))
		if err != nil {
			return err
		}
	}
	m["wal.commit_ms"] = commits.median() * 1e3
	return nil
}

// distReplay drives the script — all of it on the sharded workload, a
// control-sized prefix elsewhere — through Cluster.NewStream on two TCP
// rank servers, with no daemon and no journal in the way.
func (r *run) distReplay(tr *tracer, m metrics) error {
	s := r.stream
	script := s.script
	if s.plan.ranks == 0 {
		events := 0
		for i, w := range script {
			if events += len(w.events); events >= ctlStream.events {
				script = script[:i+1]
				break
			}
		}
	}
	cl, closeCluster, err := shardCluster(2)
	if err != nil {
		return err
	}
	defer closeCluster()
	sg, err := cl.NewStream(s.win, 1)
	if err != nil {
		return err
	}
	defer sg.Release()
	log, _, err := wal.Open(filepath.Join(r.o.outDir, "direct-dist-journal"), wal.Options{Sync: wal.SyncInterval})
	if err != nil {
		return err
	}
	defer func() {
		log.Close()
		os.RemoveAll(log.Dir())
	}()

	mark := len(tr.snapshot())
	nReads := max(len(script)/4, 30)
	// Bytes moved are read off the cluster around each kind of call, so
	// mutations and gathers are accounted separately.
	var mutSent, gatherBytes int64
	var gathers int
	counted := countingWindow{sg, cl, &mutSent, &gatherBytes, &gathers}
	if err := directStream(tr, script, s.reads, nReads, "dist", counted, log); err != nil {
		return err
	}
	spans := tr.snapshot()[mark:]
	events := 0
	for _, w := range script {
		events += len(w.events)
	}
	m["dist.ingest_us_per_event"] = durations(spans, "dist.add").sum() / float64(events) * 1e6
	m["dist.advance_ms"] = durations(spans, "dist.advance").median() * 1e3
	m["dist.gather_boxmass_us"] = durations(spans, "dist.boxmass").median() * 1e6
	m["dist.gather_topk_us"] = durations(spans, "dist.topk").median() * 1e6
	m["dist.bytes_per_ingest_event"] = float64(mutSent) / float64(events)
	if gathers > 0 {
		m["dist.bytes_per_gather"] = float64(gatherBytes) / float64(gathers)
	}
	// Every event is 24 bytes on the wire; what the ranks were sent beyond
	// one copy of each event is halo replication (plus <1% framing).
	m["dist.halo_replication"] = float64(mutSent) / float64(24*events)
	return nil
}

// countingWindow is a StreamGroup that books the cluster's bytes moved to
// mutations or gathers as the calls go by.
type countingWindow struct {
	window
	cl          *stkde.ShardCluster
	mutSent     *int64
	gatherBytes *int64
	gathers     *int
}

func (w countingWindow) Add(pts ...grid.Point) error {
	s0, _ := commBytes(w.cl)
	err := w.window.Add(pts...)
	s1, _ := commBytes(w.cl)
	*w.mutSent += s1 - s0
	return err
}

func (w countingWindow) AdvanceTo(t float64) (int, int, error) {
	s0, _ := commBytes(w.cl)
	a, e, err := w.window.AdvanceTo(t)
	s1, _ := commBytes(w.cl)
	*w.mutSent += s1 - s0
	return a, e, err
}

func (w countingWindow) gather(fn func()) {
	s0, r0 := commBytes(w.cl)
	fn()
	s1, r1 := commBytes(w.cl)
	*w.gatherBytes += s1 - s0 + r1 - r0
	*w.gathers++
}

func (w countingWindow) BoxMass(b grid.Box) (v float64, err error) {
	w.gather(func() { v, err = w.window.BoxMass(b) })
	return
}

func (w countingWindow) TopK(k int) (top []grid.VoxelDensity, err error) {
	w.gather(func() { top, err = w.window.TopK(k) })
	return
}
