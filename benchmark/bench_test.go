package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// inputsHash fingerprints everything a workload generates from a seed,
// without starting anything.
func inputsHash(t *testing.T, workload string, seed uint64) string {
	t.Helper()
	r, err := newRun(options{workload: workload, seed: seed, seconds: runSeconds, smoke: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	if r.read != nil {
		if r.read.inst, err = r.read.gen(); err != nil {
			t.Fatal(err)
		}
		r.read.generate()
		out += r.read.hash.String()
	}
	if err := r.stream.generate(); err != nil {
		t.Fatal(err)
	}
	out += r.stream.hash.String()
	inst, err := r.cubeInput()
	if err != nil {
		t.Fatal(err)
	}
	return out + hashOps(nil, nil, inst.pts).String()
}

func TestSameSeedSameOpStream(t *testing.T) {
	for _, w := range workloadNames() {
		a, b, c := inputsHash(t, w, 7), inputsHash(t, w, 7), inputsHash(t, w, 8)
		if a != b {
			t.Errorf("%s: seed 7 generated two different op streams: %s, %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same op stream %s", w, a)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) → [2.725, 4.7, 7.675] and [2.0, 4.0, 8.0].
	for _, c := range []struct {
		v      sample
		q1, q3 float64
	}{
		{sample{3.1, 2.2, 5.0, 4.4, 9.9, 1.0, 7.3, 6.1, 8.8, 2.9}, 2.725, 7.675},
		{sample{1, 2, 4, 8, 16, 3, 5.5}, 2, 8},
	} {
		q1, q3 := c.v.quartiles()
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; Python says %g, %g", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailNeedsSamplesBeyond(t *testing.T) {
	s := make(sample, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if v, beyond := s.tail(99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %g with %d beyond, want 990 with 10", v, beyond)
	}
	if p := s.highestSupported(); p != 99 {
		t.Errorf("1000 samples support p%g, want p99", p)
	}
	if p := s[:999].highestSupported(); p != 95 {
		t.Errorf("999 samples support p%g, want p95 (p99 leaves 9 beyond)", p)
	}
	if p := s[:50].highestSupported(); p != 50 {
		t.Errorf("50 samples support p%g, want p50", p)
	}
	if v := (sample{}).median(); !math.IsNaN(v) {
		t.Errorf("median of nothing = %g, want NaN", v)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.open()
	a := tr.add(root, 1, "a", at(10), at(40), 0)
	tr.add(root, 1, "b", at(30), at(60), 0) // overlaps a by 10 ms
	tr.add(a, 1, "a.inner", at(15), at(20), 0)
	tr.add(root, 1, "late", at(90), at(120), 0) // runs 20 ms past the root
	tr.finish(root, 0, 1, "root", at(0), at(100), 0)
	self := selfByName(tr.snapshot())
	for name, want := range map[string]time.Duration{
		"root":    40 * time.Millisecond, // 100 − [10,60] − [90,100]
		"a":       25 * time.Millisecond,
		"b":       30 * time.Millisecond,
		"a.inner": 5 * time.Millisecond,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
}

// TestSmokeEveryWorkload runs each workload plain and traced at smoke
// scale with every correctness check on. No assertion looks at a clock.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadNames() {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			r, err := newRun(options{workload: w, seed: 3, seconds: runSeconds, trace: trace, smoke: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			run := r.plain
			if trace == 1 {
				run = r.traced
			}
			m, err := run()
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w, trace, err)
			}
			if r.rep.failed != 0 || r.rep.attempted == 0 {
				t.Errorf("%s trace=%d: %d of %d operations or checks failed: %v", w, trace, r.rep.failed, r.rep.attempted, r.rep.problems)
			}
			for _, d := range defs {
				v, ok := m[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%d: metric %s = %v (present: %v)", w, trace, d.Name, v, ok)
				}
				if trace == 0 && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w, d.Name, v)
				}
			}
		}
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json and the tables in
// spec.go / layers.go in step.
func TestManifestMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	if man.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the tables say %d", man.RunSeconds, runSeconds)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the tables", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i] != w {
			t.Errorf("workload %d: manifest %+v, tables %+v", i, man.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(man.EndToEnd) != len(endToEnd) || len(man.PerLayer) != len(perLayer) {
		t.Fatalf("manifest lists %d+%d metrics, the tables %d+%d", len(man.EndToEnd), len(man.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if g := man.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end_to_end %d: manifest %+v, tables %+v", i, g, d)
		}
	}
	for i, d := range perLayer {
		if g := man.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per_layer %d: manifest %+v, tables %+v", i, g, d)
		}
	}
}
