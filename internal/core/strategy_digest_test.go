package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
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
