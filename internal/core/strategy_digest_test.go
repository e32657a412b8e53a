package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/data"
)

// strategyDigests pins the FNV-64a hash of the Float64bits of every
// strategy's grid on vectorSpec (140 points, seed 53, decomposition 2³), at
// one and at two workers. The values are the dense bandwidth-box scan's
// bits, so they hold the span engine, scalar and vector alike, to it.
var strategyDigests = map[string][2]uint64{
	AlgVB:            {0xf6bd058983efb9c0, 0xf6bd058983efb9c0},
	AlgVBDEC:         {0xbb26b5b15fd13ea9, 0xbb26b5b15fd13ea9},
	AlgPB:            {0x78346f2f2d139e09, 0x78346f2f2d139e09},
	AlgPBDISK:        {0x1dad83ae48cf5a6b, 0x1dad83ae48cf5a6b},
	AlgPBBAR:         {0x928b3667284f8e20, 0x928b3667284f8e20},
	AlgPBSYM:         {0xccc71fd4cd8b9d96, 0xccc71fd4cd8b9d96},
	AlgPBSYMDR:       {0xccc71fd4cd8b9d96, 0x9ce9efb404cf0e0f},
	AlgPBSYMDD:       {0xccc71fd4cd8b9d96, 0xccc71fd4cd8b9d96},
	AlgPBSYMPD:       {0xccc71fd4cd8b9d96, 0xccc71fd4cd8b9d96},
	AlgPBSYMPDSCHED:  {0xccc71fd4cd8b9d96, 0xccc71fd4cd8b9d96},
	AlgPBSYMPDREP:    {0xccc71fd4cd8b9d96, 0x9ce9efb404cf0e0f},
	AlgPBSYMPDSCHREP: {0xccc71fd4cd8b9d96, 0x9ce9efb404cf0e0f},
}

// TestStrategyDigests runs all twelve strategies at 1 and 2 threads and
// checks each grid's digest. PD and PD-SCHED hand a voxel its points cell
// by cell in color order, not in sorted order, so in general they are not
// bitwise equal to sequential PB-SYM (on this input they happen to be), and
// the replicating strategies reduce buffers; a digest, not an oracle
// comparison, is what pins them. Go may fuse a multiply and an add off
// amd64, which would change the last bits, so the test runs on amd64 only.
func TestStrategyDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned digests assume unfused multiply-adds, which only amd64 guarantees")
	}
	spec := vectorSpec(t)
	pts := testPoints(140, spec.Domain, 53)
	for _, alg := range Algorithms() {
		for i, threads := range []int{1, 2} {
			res, err := Estimate(alg, pts, spec, Options{Threads: threads, Decomp: [3]int{2, 2, 2}})
			if err != nil {
				t.Fatalf("%s/P%d: %v", alg, threads, err)
			}
			h := fnv.New64a()
			var b [8]byte
			for _, v := range res.Grid.Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			if got, want := h.Sum64(), strategyDigests[alg][i]; got != want {
				t.Errorf("%s/P%d: digest %#x, want %#x", alg, threads, got, want)
			}
		}
	}
}

// pinnedStats is the part of Stats a parallel strategy's counters and
// schedule structure fix; the float fields are held by their bits.
type pinnedStats struct {
	Updates, SKEvals, TKEvals, PointAssignments int64
	Decomp                                      [3]int
	Cells, Colors                               int
	ReplicatedCells, MaxReplication             int
	BufferBytes                                 int64
	TotalWork, CriticalPath                     uint64
}

// strategyStats pins every parallel strategy's Stats on the script of
// TestStrategyDigests, at one and at two workers.
var strategyStats = map[string][2]pinnedStats{
	AlgPBSYMDR: {
		{146717, 17324, 1185, 0, [3]int{0, 0, 0}, 0, 0, 0, 0, 0, 0x0, 0x0},
		{157949, 17324, 1185, 0, [3]int{0, 0, 0}, 0, 0, 0, 0, 89856, 0x0, 0x0},
	},
	AlgPBSYMDD: {
		{146717, 25782, 2380, 417, [3]int{2, 2, 2}, 8, 0, 0, 0, 0, 0x0, 0x0},
		{146717, 25782, 2380, 417, [3]int{2, 2, 2}, 8, 0, 0, 0, 0, 0x0, 0x0},
	},
	AlgPBSYMPD: {
		{146717, 17324, 1185, 0, [3]int{1, 1, 1}, 1, 1, 0, 0, 0, 0x4115261000000000, 0x4115261000000000},
		{146717, 17324, 1185, 0, [3]int{1, 1, 1}, 1, 1, 0, 0, 0, 0x4115261000000000, 0x4115261000000000},
	},
	AlgPBSYMPDSCHED: {
		{146717, 17324, 1185, 0, [3]int{1, 1, 1}, 1, 1, 0, 1, 0, 0x4115261000000000, 0x4115261000000000},
		{146717, 17324, 1185, 0, [3]int{1, 1, 1}, 1, 1, 0, 1, 0, 0x4115261000000000, 0x4115261000000000},
	},
	AlgPBSYMPDREP: {
		{146717, 17324, 1185, 0, [3]int{1, 1, 1}, 1, 1, 0, 1, 0, 0x4115261000000000, 0x4115261000000000},
		{169181, 17324, 1185, 0, [3]int{1, 1, 1}, 1, 1, 1, 2, 179712, 0x4115261000000000, 0x4109431000000000},
	},
	AlgPBSYMPDSCHREP: {
		{146717, 17324, 1185, 0, [3]int{1, 1, 1}, 1, 1, 0, 1, 0, 0x4115261000000000, 0x4115261000000000},
		{169181, 17324, 1185, 0, [3]int{1, 1, 1}, 1, 1, 1, 2, 179712, 0x4115261000000000, 0x4109431000000000},
	},
}

// TestStrategyStats runs the six parallel strategies on the script of
// TestStrategyDigests and checks their exact work counters (updates, kernel
// evaluations, point assignments, replication buffers) and schedule
// structure (decomposition, cells, colors, total work, critical path). It
// holds how a strategy cuts and schedules its work, which the grid's digest
// alone does not: the counts are the same whichever worker runs a task. The
// span lengths behind the counts come from distance tests that Go may fuse
// off amd64, so like the digests it runs on amd64 only.
func TestStrategyStats(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned counts assume unfused multiply-adds, which only amd64 guarantees")
	}
	spec := vectorSpec(t)
	pts := testPoints(140, spec.Domain, 53)
	for _, alg := range ParallelAlgorithms() {
		for i, threads := range []int{1, 2} {
			res, err := Estimate(alg, pts, spec, Options{Threads: threads, Decomp: [3]int{2, 2, 2}})
			if err != nil {
				t.Fatalf("%s/P%d: %v", alg, threads, err)
			}
			s := res.Stats
			got := pinnedStats{
				s.Updates, s.SKEvals, s.TKEvals, s.PointAssignments, s.Decomp,
				s.Cells, s.Colors, s.ReplicatedCells, s.MaxReplication, s.BufferBytes,
				math.Float64bits(s.TotalWork), math.Float64bits(s.CriticalPath),
			}
			if want := strategyStats[alg][i]; got != want {
				t.Errorf("%s/P%d: stats\n got %+v\nwant %+v", alg, threads, got, want)
			}
		}
	}
}

// TestAnalyzePDMatchesEstimate: AnalyzePD reports, without computing a
// density, the same schedule structure that PB-SYM-PD (checkerboard
// coloring) and PB-SYM-PD-SCHED (load-aware coloring) report when they
// run, bit for bit, at every worker count; and on Figure 12's kind of
// input the load-aware critical path stays below half the total work.
func TestAnalyzePDMatchesEstimate(t *testing.T) {
	type schedule struct {
		Decomp                                                [3]int
		Cells, Colors                                         int
		TotalWork, CriticalPath, CriticalPathRel, GrahamBound uint64
	}
	sched := func(s Stats) schedule {
		return schedule{s.Decomp, s.Cells, s.Colors,
			math.Float64bits(s.TotalWork), math.Float64bits(s.CriticalPath),
			math.Float64bits(s.CriticalPathRel), math.Float64bits(s.GrahamBound)}
	}
	spec := testSpec(t, 80, 80, 40, 3, 2)
	pts := data.Epidemic{}.Generate(5000, spec.Domain, 3)
	for _, threads := range []int{1, 2, 16} {
		opt := Options{Threads: threads, Decomp: [3]int{8, 8, 8}}
		for _, c := range []struct {
			alg       string
			loadAware bool
		}{{AlgPBSYMPD, false}, {AlgPBSYMPDSCHED, true}} {
			got, err := AnalyzePD(pts, spec, opt, c.loadAware)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Estimate(c.alg, pts, spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			res.Grid.Release()
			if sched(got) != sched(res.Stats) {
				t.Errorf("%s/P%d: AnalyzePD\n got %+v\nwant %+v", c.alg, threads, sched(got), sched(res.Stats))
			}
			if got.Cells != 512 {
				t.Errorf("%s/P%d: %d cells, want 512", c.alg, threads, got.Cells)
			}
			if c.loadAware && got.CriticalPathRel >= 0.5 {
				t.Errorf("%s/P%d: critical path %.3f of the work, want below half", c.alg, threads, got.CriticalPathRel)
			}
		}
	}
}
