package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// quickCfg keeps harness tests fast: tiny scale, two small instances,
// small sweeps.
func quickCfg(out *bytes.Buffer) Config {
	return Config{
		Scale:      0.06,
		Threads:    []int{1, 2},
		MaxThreads: 2,
		Decomps:    [][3]int{{1, 1, 1}, {2, 2, 2}, {4, 4, 4}},
		Instances:  []string{"Dengue_Lr-Lb", "PollenUS_Lr-Lb"},
		Out:        out,
	}
}

func TestExperimentsList(t *testing.T) {
	want := []string{"table2", "table3", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "dist", "kernels",
		"overload", "faults"}
	if got := Experiments(); !slices.Equal(got, want) {
		t.Fatalf("Experiments() = %v, want %v", got, want)
	}
	var out bytes.Buffer
	for _, exp := range Experiments() {
		if exp == "fig15" || exp == "fig14" || exp == "overload" {
			continue // covered by dedicated tests below (slower)
		}
		rep, err := Run(exp, quickCfg(&out))
		if err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if rep.Exp != exp {
			t.Errorf("report id %q, want %q", rep.Exp, exp)
		}
		if len(rep.Rows) == 0 {
			t.Errorf("%s produced no rows", exp)
		}
	}
	if out.Len() == 0 {
		t.Error("no formatted output produced")
	}
}

func TestUnknownExperiment(t *testing.T) {
	// fig99 never existed; the rest are retired experiments whose
	// measurements moved to the repository benchmark's per-layer metrics.
	for _, exp := range []string{"fig99", "stream", "recover", "shard", "analytics", "serve"} {
		_, err := Run(exp, Config{})
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("Run(%q) error = %v, want unknown experiment", exp, err)
		}
	}
}

func TestUnknownInstance(t *testing.T) {
	cfg := Config{Instances: []string{"NotAnInstance"}}
	if _, err := Run("fig7", cfg); err == nil {
		t.Fatal("expected error for unknown instance")
	}
}

func TestTable3SkipsExpensiveVB(t *testing.T) {
	var out bytes.Buffer
	cfg := quickCfg(&out)
	cfg.VBOpsLimit = 1 // force skip
	rep, err := Run("table3", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rows {
		if r.Algo == core.AlgVB || r.Algo == core.AlgVBDEC {
			t.Errorf("VB-family row should have been skipped: %+v", r)
		}
	}
	// PB family always runs.
	seen := map[string]bool{}
	for _, r := range rep.Rows {
		seen[r.Algo] = true
	}
	for _, alg := range []string{core.AlgPB, core.AlgPBDISK, core.AlgPBBAR, core.AlgPBSYM} {
		if !seen[alg] {
			t.Errorf("missing rows for %s", alg)
		}
	}
}

func TestTable3Speedups(t *testing.T) {
	var out bytes.Buffer
	rep, err := Run("table3", quickCfg(&out))
	if err != nil {
		t.Fatal(err)
	}
	times := map[string]map[string]float64{}
	for _, r := range rep.Rows {
		if times[r.Instance] == nil {
			times[r.Instance] = map[string]float64{}
		}
		times[r.Instance][r.Algo] = r.Seconds
	}
	if len(times) == 0 {
		t.Fatal("no rows")
	}
	// Table 3's headline: VB costs orders of magnitude more than PB. That
	// is a wall-clock comparison, which a loaded machine can invert on the
	// tiny test instances, so tier-1 checks only that PB ran; the CI
	// overload smoke sets STKDE_TIMING_TESTS=1 and enforces it.
	timed := os.Getenv("STKDE_TIMING_TESTS") == "1"
	for inst, tm := range times {
		vb, okVB := tm[core.AlgVB]
		pb, okPB := tm[core.AlgPB]
		if !okPB || pb <= 0 {
			t.Errorf("%s: no timed PB row", inst)
		}
		if timed && okVB && okPB && vb < pb {
			t.Errorf("%s: VB (%.4fs) unexpectedly faster than PB (%.4fs)", inst, vb, pb)
		}
	}
	if !strings.Contains(out.String(), "Table 3") {
		t.Error("missing table banner")
	}
}

func TestFig7Fractions(t *testing.T) {
	var out bytes.Buffer
	rep, err := Run("fig7", quickCfg(&out))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rows {
		f := r.Extra["init_frac"]
		if f < 0 || f > 1 {
			t.Errorf("%s init fraction %g outside [0,1]", r.Instance, f)
		}
	}
}

func TestFig8OOMWithTinyBudget(t *testing.T) {
	var out bytes.Buffer
	cfg := quickCfg(&out)
	cfg.Instances = []string{"Flu_Lr-Lb"}
	cfg.Budget = 64 << 10 // 64 KB: holds one scaled grid but not replicas
	rep, err := Run("fig8", cfg)
	if err != nil {
		t.Fatal(err)
	}
	foundOOM := false
	for _, r := range rep.Rows {
		if r.OOM {
			foundOOM = true
		}
	}
	if !foundOOM {
		t.Error("expected OOM rows under a 1MB budget")
	}
	if !strings.Contains(out.String(), "OOM") {
		t.Error("OOM not rendered in the table")
	}
}

func TestFig12CriticalPathColumns(t *testing.T) {
	var out bytes.Buffer
	rep, err := Run("fig12", quickCfg(&out))
	if err != nil {
		t.Fatal(err)
	}
	byInstance := map[string]map[string]float64{}
	for _, r := range rep.Rows {
		if byInstance[r.Instance] == nil {
			byInstance[r.Instance] = map[string]float64{}
		}
		byInstance[r.Instance][r.Algo] = r.Extra["cp_rel"]
	}
	for inst, m := range byInstance {
		pd, okPD := m[core.AlgPBSYMPD]
		sch, okSch := m[core.AlgPBSYMPDSCHED]
		if !okPD || !okSch {
			t.Fatalf("%s: missing variants: %v", inst, m)
		}
		if pd <= 0 || pd > 1 || sch <= 0 || sch > 1 {
			t.Errorf("%s: cp_rel out of range: pd=%g sched=%g", inst, pd, sch)
		}
	}
}

func TestFig15PicksWinners(t *testing.T) {
	var out bytes.Buffer
	cfg := quickCfg(&out)
	cfg.Instances = []string{"Dengue_Lr-Lb"}
	cfg.Decomps = [][3]int{{2, 2, 2}, {4, 4, 4}}
	rep, err := Run("fig15", cfg)
	if err != nil {
		t.Fatal(err)
	}
	algos := map[string]bool{}
	for _, r := range rep.Rows {
		algos[r.Algo] = true
	}
	for _, alg := range []string{core.AlgPBSYMDR, core.AlgPBSYMDD, core.AlgPBSYMPD,
		core.AlgPBSYMPDSCHED, core.AlgPBSYMPDSCHREP} {
		if !algos[alg] {
			t.Errorf("fig15 missing strategy %s", alg)
		}
	}
}

func TestDistScalingProfile(t *testing.T) {
	var out bytes.Buffer
	cfg := quickCfg(&out)
	cfg.Instances = []string{"Dengue_Lr-Lb"}
	cfg.Ranks = []int{1, 2, 4}
	rep, err := Run("dist", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("expected one row per rank count, got %d", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.Extra["messages"] != 2*r.Extra["ranks"] {
			t.Errorf("R=%v: messages %v, want %v", r.Extra["ranks"], r.Extra["messages"], 2*r.Extra["ranks"])
		}
		if r.Extra["gather_bytes"] <= 0 || r.Extra["scatter_bytes"] <= 0 {
			t.Errorf("R=%v: empty communication profile: %+v", r.Extra["ranks"], r.Extra)
		}
		if r.Extra["ranks"] > 1 && r.Extra["replicated"] == 0 {
			t.Errorf("R=%v: expected halo replication", r.Extra["ranks"])
		}
	}
	if !strings.Contains(out.String(), "rank scaling") {
		t.Error("missing table banner")
	}
}

func TestWriteCSV(t *testing.T) {
	rep := &Report{Exp: "x", Rows: []Row{
		{Instance: "A", Algo: "pb", Decomp: [3]int{2, 2, 2}, Threads: 4,
			Seconds: 1.5, Speedup: 2, Extra: map[string]float64{"z": 1, "a": 2}},
		{Instance: "B", Algo: "vb", OOM: true},
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if lines[0] != "instance,algo,decomp,threads,seconds,speedup,oom,a,z" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "A,pb,2x2x2,4,1.5,2,false,2,1") {
		t.Errorf("row 1 = %q", lines[1])
	}
	if !strings.Contains(lines[2], "true") {
		t.Errorf("row 2 = %q", lines[2])
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 0.15 || c.MaxThreads < 1 || len(c.Decomps) != 7 || c.VBOpsLimit != 2e9 {
		t.Errorf("unexpected defaults: %+v", c)
	}
	// The sweep is not clamped to the host: -modeled predicts beyond it.
	if want := []int{1, 2, 4, 8, 16}; !slices.Equal(c.Threads, want) {
		t.Errorf("Threads = %v, want %v", c.Threads, want)
	}
}

// TestOverloadExperiment drives the admission bench at quick scale and
// asserts the guarantees the committed BENCH_overload.json records: the
// admitted p99 stays within twice the SLO at ~10x offered load, every
// shed carried a positive Retry-After, the flood was actually shed, and
// no under-limit (polite) tenant was starved.
func TestOverloadExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("overload bench sustains seconds of open-loop traffic")
	}
	var out bytes.Buffer
	cfg := quickCfg(&out)
	cfg.Instances = cfg.Instances[:1]
	rep, err := Run("overload", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rep.Rows))
	}
	row := rep.Rows[0]
	for _, key := range []string{"svc_ms", "slo_ms", "p99_ms", "capacity_rps",
		"offered_rps", "admitted", "shed", "shed_rate", "shed_slo", "shed_queue",
		"retry_missing", "polite_offered", "polite_done", "polite_min_rate"} {
		if _, ok := row.Extra[key]; !ok {
			t.Errorf("row missing %q: %+v", key, row.Extra)
		}
	}
	if row.Extra["offered_rps"] < 5*row.Extra["capacity_rps"] {
		t.Errorf("offered %.1f rps is not an overload of capacity %.1f rps",
			row.Extra["offered_rps"], row.Extra["capacity_rps"])
	}
	if row.Extra["admitted"] < 1 {
		t.Fatalf("no requests admitted: %+v", row.Extra)
	}
	if row.Extra["shed"] < 1 {
		t.Errorf("overload shed nothing: %+v", row.Extra)
	}
	if raceEnabled || os.Getenv("STKDE_TIMING_TESTS") != "1" {
		// The two bounds below are wall-clock assertions: they depend on how
		// loaded this machine is while the test runs (and the race detector
		// inflates the loaded service time far past the SLO derived from the
		// unloaded measurement), so tier-1 only reports them. The CI overload
		// smoke job sets STKDE_TIMING_TESTS=1 and enforces them on a quiet
		// runner; ROADMAP item 7 is to make the guarantee provable without a
		// clock.
		t.Logf("timing bounds not enforced (race %v, STKDE_TIMING_TESTS=%q): p99 %.0f ms, SLO %.0f ms, polite %.2f",
			raceEnabled, os.Getenv("STKDE_TIMING_TESTS"),
			row.Extra["p99_ms"], row.Extra["slo_ms"], row.Extra["polite_min_rate"])
	} else {
		if row.Extra["p99_ms"] > 2*row.Extra["slo_ms"] {
			t.Errorf("admitted p99 %.0f ms breaks the bounded-p99 guarantee (SLO %.0f ms)",
				row.Extra["p99_ms"], row.Extra["slo_ms"])
		}
		if row.Extra["polite_min_rate"] < 0.5 {
			t.Errorf("a polite tenant was starved: min completion %.2f, per-tenant %+v",
				row.Extra["polite_min_rate"], row.Extra)
		}
	}
	if row.Extra["retry_missing"] != 0 {
		t.Errorf("%g sheds lacked a positive Retry-After", row.Extra["retry_missing"])
	}
	if row.Extra["errors"] != 0 {
		t.Errorf("%g requests failed with non-shed errors", row.Extra["errors"])
	}
	if !strings.Contains(out.String(), "Overload") {
		t.Error("report title missing from formatted output")
	}
}

func TestKernelsExperiment(t *testing.T) {
	var out bytes.Buffer
	cfg := quickCfg(&out)
	cfg.Instances = cfg.Instances[:1]
	rep, err := Run("kernels", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(kernelConfigs) {
		t.Fatalf("got %d rows, want %d", len(rep.Rows), len(kernelConfigs))
	}
	for i, row := range rep.Rows {
		want := core.AlgPBSYM + "[" + kernelConfigs[i].Name + "]"
		if row.Algo != want {
			t.Errorf("row %d algo = %q, want %q", i, row.Algo, want)
		}
		if row.Seconds <= 0 {
			t.Errorf("%s: compute time not recorded", row.Algo)
		}
		if i > 0 && row.Speedup <= 0 {
			t.Errorf("%s: speedup not recorded", row.Algo)
		}
		for _, key := range []string{"bin", "total"} {
			if _, ok := row.Extra[key]; !ok {
				t.Errorf("%s: missing extra %q", row.Algo, key)
			}
		}
	}
	if !strings.Contains(out.String(), "Hot-path engine") {
		t.Error("report title missing from formatted output")
	}
}

func TestWriteJSONTrajectory(t *testing.T) {
	var out bytes.Buffer
	cfg := quickCfg(&out)
	cfg.Instances = cfg.Instances[:1]
	rep, err := Run("kernels", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep, cfg); err != nil {
		t.Fatal(err)
	}
	var tr Trajectory
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trajectory is not valid JSON: %v", err)
	}
	if tr.Schema != trajectorySchema || tr.Experiment != "kernels" {
		t.Errorf("trajectory header wrong: %+v", tr)
	}
	if tr.CPUs < 1 || tr.GoVersion == "" || tr.Scale != cfg.Scale {
		t.Errorf("machine context incomplete: %+v", tr)
	}
	if len(tr.Rows) != len(rep.Rows) {
		t.Errorf("rows round-trip lost entries: %d vs %d", len(tr.Rows), len(rep.Rows))
	}
}
