// Benchmarks that regenerate every table and figure of the paper's
// evaluation (Section 6) as Go testing.B benchmarks, one per artifact, on
// scaled Table 2 instances. Run them all with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the quantity its figure plots as a custom metric
// (speedup, overhead factor, relative critical path, ...). For full tables
// over all 21 instances use cmd/stkdebench instead; benchmarks here use a
// small instance subset so the suite completes in minutes.
package repro_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/stkde"
	"repro/synth"
)

// benchScale keeps grids a few MB so the whole suite runs in minutes.
const benchScale = 0.10

// benchInstances is the representative subset: one instance per regime.
//   - Dengue_Hr-VHb: clustered, large bandwidth (DD/PD shine)
//   - PollenUS_Hr-Mb: many points, compute-bound (scheduling matters)
//   - Flu_Mr-Lb: sparse, init-bound (replication hurts)
//   - eBird_Lr-Hb: dense, compute-heavy (replication wins)
var benchInstances = []string{
	"Dengue_Hr-VHb", "PollenUS_Hr-Mb", "Flu_Mr-Lb", "eBird_Lr-Hb",
}

type fixture struct {
	pts  []grid.Point
	spec grid.Spec
}

var (
	fixMu  sync.Mutex
	fixMap = map[string]*fixture{}
)

func load(b *testing.B, name string) *fixture {
	b.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	if f, ok := fixMap[name]; ok {
		return f
	}
	inst, ok := data.InstanceByName(name)
	if !ok {
		b.Fatalf("unknown instance %s", name)
	}
	s, err := inst.Scaled(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{pts: s.Points(), spec: s.Spec}
	fixMap[name] = f
	return f
}

func run(b *testing.B, alg string, f *fixture, opt core.Options) *core.Result {
	b.Helper()
	res, err := core.Estimate(alg, f.pts, f.spec, opt)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func maxThreads() int {
	p := runtime.GOMAXPROCS(0)
	if p > 16 {
		p = 16
	}
	return p
}

// seqTime measures the sequential PB-SYM baseline once per instance.
var (
	seqMu   sync.Mutex
	seqBase = map[string]float64{}
)

func seqBaseline(b *testing.B, name string, f *fixture) float64 {
	seqMu.Lock()
	defer seqMu.Unlock()
	if t, ok := seqBase[name]; ok {
		return t
	}
	res := run(b, core.AlgPBSYM, f, core.Options{Threads: 1})
	t := res.Phases.Total().Seconds()
	res.Grid.Release()
	seqBase[name] = t
	return t
}

// BenchmarkTable2Catalog regenerates Table 2 (instance creation and
// deterministic point generation).
func BenchmarkTable2Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, inst := range synth.Catalog() {
			s, err := inst.Scaled(0.05)
			if err != nil {
				b.Fatal(err)
			}
			pts := s.Points()
			if len(pts) == 0 {
				b.Fatal("no points")
			}
		}
	}
}

// BenchmarkTable3Sequential regenerates Table 3: the sequential algorithm
// ladder VB -> VB-DEC -> PB -> PB-DISK -> PB-BAR -> PB-SYM. VB runs only on
// the smallest instance (its cost is quadratic, exactly why the paper
// leaves blanks).
func BenchmarkTable3Sequential(b *testing.B) {
	for _, name := range []string{"Dengue_Lr-Lb", "PollenUS_Lr-Lb"} {
		f := load(b, name)
		vbOps := float64(f.spec.Voxels()) * float64(len(f.pts))
		for _, alg := range core.SequentialAlgorithms() {
			if (alg == core.AlgVB || alg == core.AlgVBDEC) && vbOps > 5e8 {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", name, alg), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := run(b, alg, f, core.Options{Threads: 1})
					res.Grid.Release()
				}
			})
		}
	}
}

// BenchmarkFig7Breakdown regenerates Figure 7: the init/compute breakdown
// of PB-SYM, reported as the init fraction metric.
func BenchmarkFig7Breakdown(b *testing.B) {
	for _, name := range benchInstances {
		f := load(b, name)
		b.Run(name, func(b *testing.B) {
			var initS, totalS float64
			for i := 0; i < b.N; i++ {
				res := run(b, core.AlgPBSYM, f, core.Options{Threads: 1})
				initS += res.Phases.Init.Seconds()
				totalS += res.Phases.Total().Seconds()
				res.Grid.Release()
			}
			if totalS > 0 {
				b.ReportMetric(initS/totalS, "init_frac")
			}
		})
	}
}

// BenchmarkFig8DR regenerates Figure 8: PB-SYM-DR speedup per thread count.
func BenchmarkFig8DR(b *testing.B) {
	threads := []int{1, 2, 4}
	if p := maxThreads(); p >= 8 {
		threads = append(threads, 8)
	}
	for _, name := range benchInstances {
		f := load(b, name)
		for _, p := range threads {
			b.Run(fmt.Sprintf("%s/threads=%d", name, p), func(b *testing.B) {
				base := seqBaseline(b, name, f)
				var total float64
				for i := 0; i < b.N; i++ {
					res := run(b, core.AlgPBSYMDR, f, core.Options{Threads: p})
					total += res.Phases.Total().Seconds()
					res.Grid.Release()
				}
				b.ReportMetric(base/(total/float64(b.N)), "speedup")
			})
		}
	}
}

// BenchmarkFig9DDOverhead regenerates Figure 9: the single-thread runtime
// of PB-SYM-DD relative to PB-SYM, per decomposition.
func BenchmarkFig9DDOverhead(b *testing.B) {
	for _, name := range benchInstances {
		f := load(b, name)
		for _, k := range []int{1, 4, 16, 64} {
			b.Run(fmt.Sprintf("%s/decomp=%d", name, k), func(b *testing.B) {
				base := seqBaseline(b, name, f)
				var total float64
				for i := 0; i < b.N; i++ {
					res := run(b, core.AlgPBSYMDD, f,
						core.Options{Threads: 1, Decomp: [3]int{k, k, k}})
					total += res.Phases.Total().Seconds()
					res.Grid.Release()
				}
				b.ReportMetric((total/float64(b.N))/base, "overhead_x")
			})
		}
	}
}

// parallelSweep is the shared shape of Figures 10, 11, 13 and 14.
func parallelSweep(b *testing.B, alg string) {
	p := maxThreads()
	for _, name := range benchInstances {
		f := load(b, name)
		for _, k := range []int{2, 8, 32} {
			b.Run(fmt.Sprintf("%s/decomp=%d", name, k), func(b *testing.B) {
				base := seqBaseline(b, name, f)
				var total float64
				for i := 0; i < b.N; i++ {
					res := run(b, alg, f, core.Options{Threads: p, Decomp: [3]int{k, k, k}})
					total += res.Phases.Total().Seconds()
					res.Grid.Release()
				}
				b.ReportMetric(base/(total/float64(b.N)), "speedup")
			})
		}
	}
}

// BenchmarkFig10DD regenerates Figure 10: PB-SYM-DD speedup per decomposition.
func BenchmarkFig10DD(b *testing.B) { parallelSweep(b, core.AlgPBSYMDD) }

// BenchmarkFig11PD regenerates Figure 11: PB-SYM-PD speedup per decomposition.
func BenchmarkFig11PD(b *testing.B) { parallelSweep(b, core.AlgPBSYMPD) }

// BenchmarkFig13PDSched regenerates Figure 13: PB-SYM-PD-SCHED speedup.
func BenchmarkFig13PDSched(b *testing.B) { parallelSweep(b, core.AlgPBSYMPDSCHED) }

// BenchmarkFig14PDRep regenerates Figure 14: PB-SYM-PD-REP speedup.
func BenchmarkFig14PDRep(b *testing.B) { parallelSweep(b, core.AlgPBSYMPDREP) }

// BenchmarkFig12CriticalPath regenerates Figure 12: the relative critical
// path of the checkerboard (PD) versus load-aware (PD-SCHED) colorings.
func BenchmarkFig12CriticalPath(b *testing.B) {
	for _, name := range benchInstances {
		f := load(b, name)
		for _, loadAware := range []bool{false, true} {
			label := "pd"
			if loadAware {
				label = "pd-sched"
			}
			b.Run(fmt.Sprintf("%s/%s", name, label), func(b *testing.B) {
				var rel float64
				for i := 0; i < b.N; i++ {
					st, err := core.AnalyzePD(f.pts, f.spec,
						core.Options{Threads: maxThreads(), Decomp: [3]int{64, 64, 64}}, loadAware)
					if err != nil {
						b.Fatal(err)
					}
					rel = st.CriticalPathRel
				}
				b.ReportMetric(rel, "cp_rel")
			})
		}
	}
}

// BenchmarkFig15Best regenerates Figure 15: the best parallel strategy per
// instance (speedup metric of the winner).
func BenchmarkFig15Best(b *testing.B) {
	p := maxThreads()
	strategies := []string{
		core.AlgPBSYMDR, core.AlgPBSYMDD, core.AlgPBSYMPD,
		core.AlgPBSYMPDSCHED, core.AlgPBSYMPDSCHREP,
	}
	for _, name := range benchInstances {
		f := load(b, name)
		b.Run(name, func(b *testing.B) {
			base := seqBaseline(b, name, f)
			best := 0.0
			for i := 0; i < b.N; i++ {
				for _, alg := range strategies {
					res := run(b, alg, f, core.Options{Threads: p, Decomp: [3]int{8, 8, 8}})
					if sp := base / res.Phases.Total().Seconds(); sp > best {
						best = sp
					}
					res.Grid.Release()
				}
			}
			b.ReportMetric(best, "best_speedup")
		})
	}
}

// BenchmarkAblationSeparability isolates the paper's central sequential
// claim (Table 3's speedup column): exploiting the kernel's grid-aligned
// symmetry (PB-SYM) versus evaluating both kernels per voxel (PB).
func BenchmarkAblationSeparability(b *testing.B) {
	f := load(b, "PollenUS_Hr-Mb")
	for _, alg := range []string{core.AlgPB, core.AlgPBDISK, core.AlgPBBAR, core.AlgPBSYM} {
		b.Run(alg, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := run(b, alg, f, core.Options{Threads: 1})
				res.Grid.Release()
			}
		})
	}
}

// BenchmarkAblationColoringOrder isolates the effect of the load-aware
// vertex order in the greedy coloring (PD-SCHED's key idea) on the
// critical path of a clustered instance.
func BenchmarkAblationColoringOrder(b *testing.B) {
	f := load(b, "Dengue_Hr-VHb")
	for _, loadAware := range []bool{false, true} {
		label := "natural"
		if loadAware {
			label = "load-aware"
		}
		b.Run(label, func(b *testing.B) {
			var rel float64
			for i := 0; i < b.N; i++ {
				st, err := core.AnalyzePD(f.pts, f.spec,
					core.Options{Threads: maxThreads(), Decomp: [3]int{16, 16, 16}}, loadAware)
				if err != nil {
					b.Fatal(err)
				}
				rel = st.CriticalPathRel
			}
			b.ReportMetric(rel, "cp_rel")
		})
	}
}

// BenchmarkModelPrediction measures the parametric model itself (it must
// be cheap enough to run before every estimation).
func BenchmarkModelPrediction(b *testing.B) {
	f := load(b, "PollenUS_Hr-Mb")
	m := model.DefaultMachine(maxThreads(), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := model.NewWorkload(f.pts, f.spec, [3]int{8, 8, 8})
		if _, preds := model.Pick(w, m); len(preds) == 0 {
			b.Fatal("no predictions")
		}
	}
}

// BenchmarkPublicAPI exercises the stkde facade end to end, as a user
// would call it.
func BenchmarkPublicAPI(b *testing.B) {
	domain := stkde.Domain{GX: 100, GY: 100, GT: 50}
	pts := synth.Epidemic{}.Generate(20000, domain, 5)
	spec, err := stkde.NewSpec(domain, 1, 1, 4, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := stkde.Estimate(stkde.AlgPBSYMPDSCHED, pts, spec, stkde.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res.Grid.Release()
	}
}
