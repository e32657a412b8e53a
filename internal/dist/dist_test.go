package dist

import (
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/grid"
)

func testSpec(t *testing.T, gt float64, tres float64) grid.Spec {
	t.Helper()
	s, err := grid.NewSpec(grid.Domain{GX: 50, GY: 40, GT: gt}, 1, tres, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testPoints(n int, d grid.Domain, seed uint64) []grid.Point {
	return data.Epidemic{Clusters: 3, Waves: 2}.Generate(n, d, seed)
}

func maxAbsDiff(a, b *grid.Grid) float64 {
	m := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// TestDistributedMatchesPBSYM is the exactness criterion of the simulated
// distributed estimator: for every rank count — including ones that do not
// divide the temporal grid — the merged R-rank volume equals the
// single-process PB-SYM volume within 1e-9.
func TestDistributedMatchesPBSYM(t *testing.T) {
	spec := testSpec(t, 45, 1) // Gt=45: indivisible by 2, 4 and 7
	pts := testPoints(3000, spec.Domain, 11)
	ref, err := core.Estimate(core.AlgPBSYM, pts, spec, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2, 4, 7} {
		res, err := Estimate(pts, spec, Options{Ranks: r})
		if err != nil {
			t.Fatalf("ranks=%d: %v", r, err)
		}
		if res.Stats.Ranks != r {
			t.Errorf("ranks=%d: Stats.Ranks = %d", r, res.Stats.Ranks)
		}
		if d := maxAbsDiff(ref.Grid, res.Grid); d > 1e-9 {
			t.Errorf("ranks=%d: max abs diff vs PB-SYM = %g, want <= 1e-9", r, d)
		}
		res.Grid.Release()
	}
	ref.Grid.Release()
}

// TestDistributedLocalStrategies checks that ranks can reuse other
// strategies of the shared-memory family, sequential and parallel.
func TestDistributedLocalStrategies(t *testing.T) {
	spec := testSpec(t, 32, 1)
	pts := testPoints(1500, spec.Domain, 5)
	ref, err := core.Estimate(core.AlgPBSYM, pts, spec, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Grid.Release()
	for _, alg := range []string{core.AlgPB, core.AlgPBSYMDR, core.AlgPBSYMDD, core.AlgPBSYMPD} {
		res, err := Estimate(pts, spec, Options{
			Ranks:     3,
			Algorithm: alg,
			Local:     core.Options{Threads: 2},
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Algorithm != alg {
			t.Errorf("%s: Result.Algorithm = %q", alg, res.Algorithm)
		}
		if d := maxAbsDiff(ref.Grid, res.Grid); d > 1e-9 {
			t.Errorf("%s: max abs diff vs PB-SYM = %g, want <= 1e-9", alg, d)
		}
		res.Grid.Release()
	}
}

// TestHaloReplicationBruteForce cross-checks Stats.ReplicatedPts against a
// direct count from the definition: one copy for every (point, slab) pair
// where the slab needs the point but does not own its temporal voxel.
func TestHaloReplicationBruteForce(t *testing.T) {
	spec := testSpec(t, 45, 1)
	pts := testPoints(2000, spec.Domain, 3)
	for _, r := range []int{1, 2, 4, 7} {
		res, err := Estimate(pts, spec, Options{Ranks: r})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		assigned := 0
		for _, p := range pts {
			owners := 0
			_, _, T := spec.VoxelOf(p)
			for _, sl := range spec.CarveT(r) {
				if sl.NeedsLayer(T, spec.Ht) {
					assigned++
					if sl.OwnsLayer(T) {
						owners++
					} else {
						want++
					}
				}
			}
			if owners != 1 {
				t.Fatalf("point %+v has %d owners", p, owners)
			}
		}
		if res.Stats.ReplicatedPts != want {
			t.Errorf("ranks=%d: ReplicatedPts = %d, brute force says %d", r, res.Stats.ReplicatedPts, want)
		}
		sum := 0
		for _, n := range res.Stats.RankPoints {
			sum += n
		}
		if sum != assigned || sum != len(pts)+want {
			t.Errorf("ranks=%d: rank points sum to %d, want %d (n=%d + replicated=%d)",
				r, sum, assigned, len(pts), want)
		}
		if r > 1 && want == 0 {
			t.Errorf("ranks=%d: expected some halo replication with Ht=%d", r, spec.Ht)
		}
		res.Grid.Release()
	}
}

// TestCommunicationProfile pins down the message accounting: R scatter plus
// R gather messages, scatter bytes matching the framed estimate requests,
// gather bytes matching the framed slab-grid replies.
func TestCommunicationProfile(t *testing.T) {
	spec := testSpec(t, 40, 1)
	pts := testPoints(800, spec.Domain, 9)
	const r = 4
	res, err := Estimate(pts, spec, Options{Ranks: r})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Grid.Release()
	st := res.Stats
	if st.Messages != 2*r {
		t.Errorf("Messages = %d, want %d", st.Messages, 2*r)
	}
	// Each scatter frame: prefix + the estimate request (fixed header, spec,
	// algorithm name, then the rank's owned + halo points).
	perReq := int64(frameHeaderBytes + 28 + codec.SpecBytes + len(core.AlgPBSYM))
	wantScatter := r*perReq + int64(codec.PointBytes)*(int64(len(pts))+int64(st.ReplicatedPts))
	if st.ScatterBytes != wantScatter {
		t.Errorf("ScatterBytes = %d, want %d", st.ScatterBytes, wantScatter)
	}
	wantGather := int64(r*(frameHeaderBytes+gatherHeaderBytes)) + 8*int64(spec.Voxels())
	if st.GatherBytes != wantGather {
		t.Errorf("GatherBytes = %d, want %d", st.GatherBytes, wantGather)
	}
	if st.Imbalance < 1 {
		t.Errorf("Imbalance = %g, want >= 1", st.Imbalance)
	}
}

// TestRanksClamped: more ranks than temporal layers degrades gracefully to
// one layer per rank, and the result is still exact.
func TestRanksClamped(t *testing.T) {
	spec := testSpec(t, 6, 1)
	pts := testPoints(300, spec.Domain, 2)
	res, err := Estimate(pts, spec, Options{Ranks: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Grid.Release()
	if res.Stats.Ranks != spec.Gt {
		t.Errorf("Ranks = %d, want clamp to Gt=%d", res.Stats.Ranks, spec.Gt)
	}
	ref, err := core.Estimate(core.AlgPBSYM, pts, spec, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Grid.Release()
	if d := maxAbsDiff(ref.Grid, res.Grid); d > 1e-9 {
		t.Errorf("max abs diff = %g", d)
	}
}

// TestFractionalResolution runs the exactness check on a spec with
// non-integer temporal resolution, where voxel centers are not exactly
// representable — the case the bitwise-center SubSpecT design is for.
func TestFractionalResolution(t *testing.T) {
	spec := testSpec(t, 21, 0.7)
	pts := testPoints(1000, spec.Domain, 17)
	ref, err := core.Estimate(core.AlgPBSYM, pts, spec, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Grid.Release()
	res, err := Estimate(pts, spec, Options{Ranks: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Grid.Release()
	if d := maxAbsDiff(ref.Grid, res.Grid); d > 1e-9 {
		t.Errorf("max abs diff = %g, want <= 1e-9", d)
	}
}

// TestOptionValidation covers the rejected configurations.
func TestOptionValidation(t *testing.T) {
	spec := testSpec(t, 20, 1)
	pts := testPoints(100, spec.Domain, 1)
	if _, err := Estimate(pts, spec, Options{Ranks: 2, Local: core.Options{NormN: 7}}); err == nil {
		t.Error("preset NormN should be rejected")
	}
	if _, err := Estimate(pts, spec, Options{Ranks: 2, Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm should be rejected")
	}
}

// TestCodecRoundTrip checks the gather format is lossless.
func TestCodecRoundTrip(t *testing.T) {
	vals := []float64{0, -1.25, math.Inf(1), 1e-308}
	rank, t0, data, err := decodeGather(encodeGather(2, 17, vals))
	if err != nil || rank != 2 || t0 != 17 {
		t.Fatalf("gather round trip: rank=%d t0=%d err=%v", rank, t0, err)
	}
	for i := range vals {
		if data[i] != vals[i] {
			t.Errorf("voxel %d = %v, want %v", i, data[i], vals[i])
		}
	}
	if _, _, _, err := decodeGather([]byte{2, 0, 0}); err == nil {
		t.Error("truncated gather should fail")
	}
	if _, _, _, err := decodeGather(encodeOK(0, 0)); err == nil {
		t.Error("kind mismatch should fail")
	}
}

// TestEmptyPointSet: zero events produce a zero grid and a sane profile.
func TestEmptyPointSet(t *testing.T) {
	spec := testSpec(t, 16, 1)
	res, err := Estimate(nil, spec, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Grid.Release()
	if s := res.Grid.Sum(); s != 0 {
		t.Errorf("sum = %g, want 0", s)
	}
	if res.Stats.Imbalance != 1 {
		t.Errorf("Imbalance = %g, want 1", res.Stats.Imbalance)
	}
}

// TestDistributedBitwiseWithMortonSort pins the strong form of the
// exactness contract under the Morton locality pre-pass: because ranks
// sort their subsets by the ROOT spec's key (not the sub-spec frame), the
// merged R-rank volume with the default sequential PB-SYM is bitwise equal
// to the single-process run, sorted or not.
func TestDistributedBitwiseWithMortonSort(t *testing.T) {
	spec := testSpec(t, 45, 1)
	pts := testPoints(2500, spec.Domain, 29)
	for _, nosort := range []bool{false, true} {
		ref, err := core.Estimate(core.AlgPBSYM, pts, spec,
			core.Options{Threads: 1, NoSort: nosort})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []int{2, 4, 7} {
			res, err := Estimate(pts, spec, Options{
				Ranks: r, Local: core.Options{NoSort: nosort},
			})
			if err != nil {
				t.Fatalf("ranks=%d nosort=%t: %v", r, nosort, err)
			}
			for i := range ref.Grid.Data {
				if ref.Grid.Data[i] != res.Grid.Data[i] {
					t.Fatalf("ranks=%d nosort=%t: voxel %d differs bitwise: %v vs %v",
						r, nosort, i, ref.Grid.Data[i], res.Grid.Data[i])
				}
			}
			res.Grid.Release()
		}
		ref.Grid.Release()
	}
}
