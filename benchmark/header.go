package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/stkde"
)

// header opens every result file: enough to tell whether two results were
// taken on comparable ground.
type header struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	EngineISA  string  `json:"simd_active"`
	LLCBytes   int64   `json:"llc_bytes"`
	GridBytes  int64   `json:"cube_grid_bytes"` // the grid the cube stage estimates, to set against the LLC
	Commit     string  `json:"git_commit"`
}

func newHeader(o options) header {
	commit := os.Getenv("BENCH_GIT_COMMIT") // run.sh asks git; the binary starts no process
	if commit == "" {
		commit = "unknown"
	}
	return header{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), EngineISA: stkde.EngineISA(),
		LLCBytes: llcBytes(), Commit: commit,
	}
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %d\n", h.Workload, h.Seed, h.Seconds, h.Trace)
	fmt.Fprintf(w, "nproc %d  GOMAXPROCS %d  %s  simd %s  cube grid %d MiB  LLC %d MiB  commit %s\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.EngineISA, h.GridBytes>>20, h.LLCBytes>>20, h.Commit)
}

// llcBytes reads the size of cpu0's highest-level cache from sysfs (0 when
// the kernel does not say).
func llcBytes() int64 {
	var best int64
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		b, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		case strings.HasSuffix(s, "G"):
			mult, s = 1<<30, strings.TrimSuffix(s, "G")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}
