// Command benchmark is the repository's end-to-end benchmark: five
// workloads driven through the public entry points only (stkde.Estimate for
// the batch user, a real DensityServer on a loopback TCP listener for the
// daemon user), a correctness gate in the same run, and a traced mode that
// measures every layer from outside. README.md documents the metrics, the
// workloads and the design record; BENCHMARK.json names them for the driver.
//
//	benchmark --workload batch-hb --seed 1 --seconds 15 --trace 0
//	benchmark --workload stream-mixed --trace 1     # per-layer metrics + trace file
//	benchmark --sets 2 --runs 10                    # self-agreement check
//	benchmark --compare a.json b.json               # regression check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "nominal length of the measured section; operation counts scale with it")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run — per-layer metrics and out/<workload>.trace.jsonl")
	flag.BoolVar(&o.smoke, "smoke", false, "shrink every workload to a fraction of a second (checks stay on)")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for result files, traces and the journal")
	sets := flag.Int("sets", 0, "run this many sets of --runs runs per workload and judge their agreement")
	runs := flag.Int("runs", 10, "runs per workload in a set, each on its own seed")
	compare := flag.Bool("compare", false, "compare two result files (arguments: old.json new.json)")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *sets > 0:
		err = runSets(o, *sets, *runs)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	smoke    bool
	outDir   string
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report tallies operations attempted and failed — transport errors,
// non-2xx replies, refusals and failed correctness checks alike — and keeps
// the first few failures for the operator.
type report struct {
	attempted, failed int
	problems          []string
}

func (r *report) note(msg string) {
	if len(r.problems) < 12 {
		r.problems = append(r.problems, msg)
	}
}

// ops counts n operations of which failed failed; err describes the first.
func (r *report) ops(n, failed int, err error) {
	r.attempted += n
	r.failed += failed
	if failed > 0 && err != nil {
		r.note(err.Error())
	}
}

// expect counts one correctness check.
func (r *report) expect(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.note(fmt.Sprintf(format, args...))
	}
}

func (r *report) merge(o *report) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, p := range o.problems {
		r.note(p)
	}
}

// runOne runs one workload in this process and prints its result.
func runOne(o options) error {
	if o.workload == "" {
		return fmt.Errorf("--workload is required (one of %s)", strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	run, err := newRun(o)
	if err != nil {
		return err
	}
	hdr := newHeader(o)
	hdr.GridBytes = run.cubeSpec.Bytes()
	hdr.print(os.Stdout)
	defs := endToEnd
	var m metrics
	if o.trace != 0 {
		defs = perLayer
		m, err = run.traced()
	} else {
		m, err = run.plain()
	}
	if err != nil {
		return err
	}

	res := result{
		Correct:   run.rep.failed == 0,
		Attempted: run.rep.attempted,
		Failed:    run.rep.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Printf("\n%-34s %16s  %s\n", "metric", "value", "unit")
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("internal: workload %s did not produce %s", o.workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s measured no %s", o.workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%-34s %16.6g  %s\n", d.Name, v, d.Unit)
	}
	for _, line := range run.notes {
		fmt.Println(line)
	}
	for _, p := range run.rep.problems {
		fmt.Println("FAILED:", p)
	}
	if err := writeResultFile(o, hdr, res); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations or checks failed", res.Failed, res.Attempted)
	}
	return nil
}

// resultFile is what a run leaves in the out directory: the header that
// says where and on what the numbers were taken, then the numbers.
type resultFile struct {
	Header header `json:"header"`
	Result result `json:"result"`
}

func writeResultFile(o options, hdr header, res result) error {
	kind := "result"
	if o.trace != 0 {
		kind = "layers"
	}
	b, err := json.MarshalIndent(resultFile{hdr, res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(fmt.Sprintf("%s/%s.%s.json", o.outDir, o.workload, kind), append(b, '\n'), 0o644)
}

func nproc() int { return runtime.GOMAXPROCS(0) }
