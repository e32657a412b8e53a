// Command stkdebench regenerates the paper's evaluation tables and figures
// on scaled versions of the Table 2 instances.
//
// Usage:
//
//	stkdebench -list
//	stkdebench -exp table3 -scale 0.2
//	stkdebench -exp fig10 -scale 0.15 -maxthreads 16 -instances Dengue_Hr-VHb,PollenUS_Hr-Mb
//	stkdebench -exp all -scale 0.1 -csv results
//	stkdebench -exp kernels -scale 0.1 -repeats 3 -json BENCH
//
// The "kernels" experiment A/Bs the compute-engine tiers on sequential
// PB-SYM — the dense pre-rewrite scan, generic interface dispatch, the
// devirtualized scalar span engine (fast-*), and the AVX2 vector kernels
// of repro/internal/simd (vector-*, the default engine) — with and
// without the Morton locality sort; every emitted row carries an "isa"
// field recording whether internal/simd dispatched to "avx2" or "scalar"
// on the measuring host. The "overload" experiment drives a server with
// admission control at roughly 9x its measured capacity (one flooding
// tenant plus three polite ones) and reports the admitted p99 against the
// SLO, the shed counts by reason, Retry-After coverage, and the polite
// tenants' admitted fraction. The "faults" experiment kills one rank of a
// sharded live window and reports query availability, coverage and
// latency while it is down and after it heals. With -json they emit the
// stkde-bench/v1 trajectories committed as BENCH_kernels.json,
// BENCH_overload.json and BENCH_faults.json.
//
// Serving, streaming, durability, live analytics and sharded live streams
// are measured by the repository benchmark instead: bash benchmark/run.sh
// --workload <name> --trace 1 writes their per-layer metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stkdebench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp        = flag.String("exp", "", "experiment id or \"all\": "+strings.Join(bench.Experiments(), ", "))
		scale      = flag.Float64("scale", 0.15, "instance scale in (0,1]")
		threads    = flag.String("threads", "", "thread sweep for fig8, e.g. 1,2,4,8,16")
		maxThreads = flag.Int("maxthreads", 0, "P for per-decomposition experiments (0 = min(16, cores))")
		decomps    = flag.String("decomps", "", "decomposition sweep, e.g. 1,2,4,8,16 (k means kxkxk)")
		instances  = flag.String("instances", "", "comma-separated instance filter (default: all 21)")
		budgetMB   = flag.Int64("budget-mb", 0, "memory budget in MB (0 = unlimited)")
		budgetAuto = flag.Bool("budget-auto", false, "use a proportional budget that reproduces the paper's OOMs")
		modeled    = flag.Bool("modeled", false, "model the speedup figures with calibrated single-core rates + schedule simulation (reproduces 16-thread shapes on small hosts)")
		repeats    = flag.Int("repeats", 1, "measured runs per configuration, keeping the fastest")
		csvPrefix  = flag.String("csv", "", "also write <prefix>_<exp>.csv")
		jsonPrefix = flag.String("json", "", "also write <prefix>_<exp>.json (the BENCH_*.json trajectory format)")
		list       = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments:")
		for _, e := range bench.Experiments() {
			fmt.Println("  ", e)
		}
		return nil
	}
	if *exp == "" {
		flag.Usage()
		return fmt.Errorf("-exp is required (or -list)")
	}

	cfg := bench.Config{
		Scale:      *scale,
		MaxThreads: *maxThreads,
		Budget:     *budgetMB << 20,
		BudgetAuto: *budgetAuto,
		Modeled:    *modeled,
		Repeats:    *repeats,
		Out:        os.Stdout,
	}
	if *threads != "" {
		ts, err := parseInts(*threads)
		if err != nil {
			return err
		}
		cfg.Threads = ts
	}
	if *decomps != "" {
		ks, err := parseInts(*decomps)
		if err != nil {
			return err
		}
		for _, k := range ks {
			cfg.Decomps = append(cfg.Decomps, [3]int{k, k, k})
		}
	}
	if *instances != "" {
		cfg.Instances = strings.Split(*instances, ",")
	}

	exps := []string{*exp}
	if *exp == "all" {
		exps = bench.Experiments()
	}
	for _, e := range exps {
		rep, err := bench.Run(e, cfg)
		if err != nil {
			return err
		}
		if *csvPrefix != "" {
			name := fmt.Sprintf("%s_%s.csv", *csvPrefix, e)
			if err := writeReport(name, rep, func(f *os.File) error {
				return bench.WriteCSV(f, rep)
			}); err != nil {
				return err
			}
		}
		if *jsonPrefix != "" {
			name := fmt.Sprintf("%s_%s.json", *jsonPrefix, e)
			if err := writeReport(name, rep, func(f *os.File) error {
				return bench.WriteJSON(f, rep, cfg)
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeReport creates name, runs write, and reports the row count.
func writeReport(name string, rep *bench.Report, write func(*os.File) error) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (%d rows)\n", name, len(rep.Rows))
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}
