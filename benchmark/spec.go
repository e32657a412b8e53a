package main

import "fmt"

// This file is the benchmark's vocabulary: the workload names, the metric
// names with their units and bounds, and the sizes behind each workload.
// BENCHMARK.json at the repository root repeats the names for the driver;
// TestManifestMatchesTables keeps the two in step.

// runSeconds is the nominal length of a workload's measured section on the
// reference box (2 cores). Work is a fixed operation count, not a fixed
// duration: --seconds scales the counts linearly from this base, so a
// faster system finishes sooner instead of doing more.
const runSeconds = 15

type workloadDef struct{ Name, Why string }

var workloads = []workloadDef{
	{"batch-hb", "Compute-bound cube (PollenUS_Hr-Hb shape, 16 MB grid, Hs 25, Ht 7): 98% of stkde.Estimate is core compute over simd/kernel spans. Kernel, span-engine and scheduling work shows here and nowhere else."},
	{"batch-lb", "Init-bound cube (Flu_Mr-Lb shape, 0.5 GB grid, Hs 1, Ht 2): over 85% of stkde.Estimate is grid allocation and zeroing. A kernel speed-up must not move it; an allocation or first-touch change must."},
	{"serve-read", "Small reads over loopback HTTP (70% query, 20% region, 10% hotspots, cached cube): decode, admission, cache, pyramid and JSON do all the work; the engine estimates nothing while measured."},
	{"stream-mixed", "One journaled live stream: a closed-loop CSV writer advancing layer by layer beside a 50/s open-loop reader, then Shutdown and Recover. Lock, journal, engine apply and reads contend."},
	{"stream-shard", "The stream-mixed script (25 reads/s) on a window sharded over 2 TCP rank servers in-process: carve, halo replication, wire codec, sketch gather. The gap to stream-mixed is what internal/dist costs."},
}

type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only
}

// endToEnd lists what a user of the system sees, measured with tracing
// off on the workload's own stage and nothing else. The result contract
// wants every workload to report every one of them, so the two in the
// middle are named for what they are to any user — how long one answer takes
// and how much work a second buys — and README.md says which operation and
// which unit of work each workload means by them. The names the issue gave
// the same numbers (cube_seq_s, read_rps, advance_p50_ms, …) are per-layer
// metrics of the traced run: see layers.go.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// instances the workloads are built from, by short name.
type shape struct {
	catalog string
	scale   float64
}

var (
	shapeHb = shape{"PollenUS_Hr-Hb", 0.5} // 326×151×42, Hs 25, Ht 7
	shapeLb = shape{"Flu_Mr-Lb", 0.6}      // 140×369×1191, Hs 1, Ht 2
	shapeMb = shape{"PollenUS_Hr-Mb", 0.5} // 326×151×42, Hs 13, Ht 4
)

// plan is everything a workload run does. native names the stage the
// workload exists for: the plain run is that stage alone, its set-up is
// setup_s and its counts scale with --seconds. The traced run also runs
// the other stages, at fixed control sizes, for their layers' metrics.
type plan struct {
	native string // "cube", "read" or "stream"
	// setups is how many times the native stage is set up in one run;
	// setup_s is the median, so one slow start cannot move it.
	setups int

	cubeShape shape // batch workloads; the others estimate the data they serve
	cubeN     int
	cube      cubePlan

	readN int // events of the served dataset
	read  *readPlan

	window shape
	stream streamPlan
}

// Control sizes: enough for a layer's median to mean something.
var (
	ctlCube   = cubePlan{warmups: 1, reps: 25}
	ctlRead   = readPlan{clients: 2, gets: 40000, warm: 500, verify: 300}
	ctlReadN  = 40000
	ctlStream = streamPlan{events: 100000, batch: 512, windows: 4, readHz: 50, recovers: 15, finals: 24}
)

// planFor returns the sizes of a workload for a measured section of the
// given nominal length. smoke shrinks everything to a fraction of a second
// with every correctness check still on.
func planFor(name string, seconds float64, smoke bool) (plan, error) {
	f := seconds / runSeconds
	scale := func(n int) int { return max(3, int(float64(n)*f+0.5)) }
	p := plan{setups: 3, cube: ctlCube, readN: ctlReadN, window: shapeMb, stream: ctlStream}
	rd := ctlRead
	switch name {
	case "batch-hb":
		p.native, p.cubeShape, p.cubeN = "cube", shapeHb, 50000
		p.cube = cubePlan{warmups: 1, reps: scale(15)}
		p.read = &rd
	case "batch-lb":
		p.native, p.cubeShape = "cube", shapeLb
		// The first set-up is the cold one and always the slowest, so of
		// three the median is the slower of the other two — and here a
		// set-up is slow in about one of eight (a grid landing on fresh
		// pages costs 0.7–1.7 s beside a 0.46 s set-up). Of five, one more
		// slow one is left out.
		p.setups = 5
		p.cube = cubePlan{warmups: 3, reps: scale(75), maxSeqSpread: 0.30}
		p.read = &rd
	case "serve-read":
		p.native, p.readN = "read", 0
		p.read = &readPlan{clients: 2, gets: scale(250000), warm: 1000, verify: 2000}
	case "stream-mixed":
		p.native = "stream"
		p.stream = streamPlan{events: scale(800000), batch: 512, windows: 4, readHz: 50, recovers: 15, finals: 48}
	case "stream-shard":
		p.native = "stream"
		p.stream = streamPlan{events: scale(300000), batch: 512, windows: 4, readHz: 25, ranks: 2, recovers: 1, finals: 48}
	default:
		return plan{}, fmt.Errorf("unknown workload %q", name)
	}
	if smoke {
		p = p.smoke()
	}
	return p, nil
}

// smoke keeps the structure of a plan and shrinks its shapes and counts.
func (p plan) smoke() plan {
	small := func(s shape) shape { return shape{s.catalog, 0.1} }
	p.cubeShape, p.window = small(p.cubeShape), small(p.window)
	p.cubeN, p.readN = min(p.cubeN, 2000), 2000
	p.setups = 1
	p.cube.warmups, p.cube.reps, p.cube.maxSeqSpread = 1, 3, 0
	if p.read != nil {
		p.read = &readPlan{clients: 2, gets: 60, warm: 5, verify: 60}
	}
	p.stream.events, p.stream.batch, p.stream.recovers, p.stream.finals = 1500, 64, 1, 12
	return p
}
