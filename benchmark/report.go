package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// setsFile is what --sets writes and --compare reads: per set, per
// workload, per end-to-end metric, the values of the set's runs.
type setsFile struct {
	Header header                            `json:"header"`
	Runs   int                               `json:"runs_per_workload"`
	Sets   []map[string]map[string][]float64 `json:"sets"` // set → workload → metric → values
}

// worse reports by what share of base the value v is worse than base, in
// the metric's own direction (negative when it is better).
func (d metricDef) worse(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (base - v) / base
	}
	return (v - base) / base
}

// runChild runs one workload in a process of its own — so heap and page
// state and the RSS high-water mark never leak between workloads — and
// returns the parsed last line of its output.
func runChild(o options, workload string, seed uint64) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0", "--out", o.outDir}
	if o.smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run() // a failed check exits non-zero after printing its result
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "FAILED:") {
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", workload, seed, line)
		}
		if line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: no result (%v): %w", workload, seed, runErr, err)
	}
	return res, nil
}

// runSets is the self-agreement check, the driver's acceptance rule run
// locally: each set is `runs` runs of every workload on consecutive seeds.
// A metric passes when its quartile spread within every set stays inside
// its own bound (setup_s excepted: it is gated on drift only) and no later
// set's median is worse than the first set's by more than the bound.
func runSets(o options, sets, runs int) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	names := workloadNames()
	if o.workload != "" {
		names = strings.Split(o.workload, ",")
	}
	out := setsFile{Header: newHeader(o), Runs: runs}
	failures := 0
	for s := 0; s < sets; s++ {
		set := map[string]map[string][]float64{}
		for _, w := range names {
			set[w] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				t0 := time.Now()
				res, err := runChild(o, w, o.seed+uint64(i))
				if err != nil {
					return err
				}
				if !res.Correct {
					failures++
				}
				for name, mv := range res.Metrics {
					set[w][name] = append(set[w][name], mv.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d  %-13s seed %-3d %5.1fs  failed %d/%d\n",
					s+1, w, o.seed+uint64(i), time.Since(t0).Seconds(), res.Failed, res.Attempted)
			}
		}
		out.Sets = append(out.Sets, set)
	}
	path := fmt.Sprintf("%s/sets-%d.json", o.outDir, time.Now().Unix())
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("%-13s %-20s %-7s", "workload", "metric", "bound")
	for s := range out.Sets {
		fmt.Printf("  %14s %7s", fmt.Sprintf("median[%d]", s+1), "spread")
	}
	fmt.Println("  verdict")
	for _, w := range names {
		for _, d := range endToEnd {
			fmt.Printf("%-13s %-20s %6.1f%%", w, d.Name, 100*d.Bound)
			verdict := "PASS"
			base := sample(out.Sets[0][w][d.Name]).median()
			for s := range out.Sets {
				v := sample(out.Sets[s][w][d.Name])
				fmt.Printf("  %14.6g %6.1f%%", v.median(), 100*v.spread())
				if d.Name != "setup_s" && !(v.spread() <= d.Bound) {
					verdict = "FAIL spread"
				}
				if s > 0 && d.worse(base, v.median()) > d.Bound {
					verdict = "FAIL drift"
				}
			}
			fmt.Println("  " + verdict)
			if verdict != "PASS" {
				failures++
			}
		}
	}
	fmt.Println("results written to", path)
	if failures > 0 {
		return fmt.Errorf("%d rows or runs failed", failures)
	}
	return nil
}

// compareFiles prints, for every workload × end-to-end metric two sets
// files share, the medians of the first set of each (the bases) and their
// ratio, and fails when the new median is worse than the old by more than
// the metric's bound.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("--compare wants two result files: old.json new.json")
	}
	var files [2]setsFile
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if len(files[i].Sets) == 0 {
			return fmt.Errorf("%s: no sets", path)
		}
	}
	old, cur := files[0].Sets[0], files[1].Sets[0]
	fmt.Printf("old: commit %s, %d runs/workload; new: commit %s, %d runs/workload\n",
		files[0].Header.Commit, files[0].Runs, files[1].Header.Commit, files[1].Runs)
	fmt.Printf("%-13s %-20s %14s %14s %9s %7s  verdict\n", "workload", "metric", "old median", "new median", "new/old", "bound")
	breaches := 0
	for _, w := range workloadNames() {
		if old[w] == nil || cur[w] == nil {
			continue
		}
		for _, d := range endToEnd {
			a, b := sample(old[w][d.Name]), sample(cur[w][d.Name])
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			verdict := "ok"
			switch wr := d.worse(a.median(), b.median()); {
			case wr > d.Bound:
				verdict = "REGRESSED"
				breaches++
			case a.spread() > d.Bound || b.spread() > d.Bound:
				verdict = "unresolved (spread wider than the bound)"
			case -wr > d.Bound:
				verdict = "improved"
			}
			fmt.Printf("%-13s %-20s %14.6g %14.6g %9.4f %6.1f%%  %s\n",
				w, d.Name, a.median(), b.median(), b.median()/a.median(), 100*d.Bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d rows regressed beyond their bound", breaches)
	}
	return nil
}
