package dist

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

// transports enumerates the two shard transports every cross-rank test
// runs on: the identical wire protocol must behave identically whether it
// crosses a real TCP loopback socket or the in-process channel.
var transports = []struct {
	name string
	tcp  bool
}{
	{"inproc", false},
	{"tcp", true},
}

// testCluster spins up r rank servers on the chosen transport and connects
// a coordinator to them, tearing everything down with the test.
func testCluster(t *testing.T, r int, tcp bool) *Cluster {
	t.Helper()
	n := NewNetwork()
	peers := make([]string, r)
	for i := 0; i < r; i++ {
		addr := fmt.Sprintf("inproc://test-rank%d", i)
		if tcp {
			addr = "127.0.0.1:0"
		}
		s, err := ListenRank(n, addr, ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		peers[i] = s.Addr()
	}
	cl, err := Connect(n, peers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestEstimateOverTCPMatchesPBSYM is the transport acceptance criterion:
// a sharded batch estimate crossing real TCP loopback sockets equals the
// single-process PB-SYM volume within 1e-9 for R in {1, 2, 4}.
func TestEstimateOverTCPMatchesPBSYM(t *testing.T) {
	spec := testSpec(t, 30, 1)
	pts := testPoints(2000, spec.Domain, 17)
	ref, err := core.Estimate(core.AlgPBSYM, pts, spec, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Grid.Release()
	for _, r := range []int{1, 2, 4} {
		cl := testCluster(t, r, true)
		res, err := cl.Estimate(pts, spec, Options{})
		if err != nil {
			t.Fatalf("ranks=%d: %v", r, err)
		}
		if d := maxAbsDiff(ref.Grid, res.Grid); d > 1e-9 {
			t.Errorf("ranks=%d over TCP: max abs diff vs PB-SYM = %g, want <= 1e-9", r, d)
		}
		res.Grid.Release()
	}
}

// compareShardStream asserts that a sharded window and a single-process
// updater holding the same events answer identically: same spec and live
// count, snapshot volumes within 1e-9, region masses, hotspot voxels and
// voxel reads within 1e-9 of the local sketch path.
func compareShardStream(t *testing.T, sg *StreamGroup, u *core.Updater) {
	t.Helper()
	wspec := u.Spec()
	if got := sg.Spec(); got != wspec {
		t.Fatalf("sharded spec %+v, updater %+v", got, wspec)
	}
	if sg.N() != u.N() {
		t.Fatalf("sharded N = %d, updater %d", sg.N(), u.N())
	}

	ref, err := u.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	snap, err := sg.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if d := maxAbsDiff(ref, snap); d > 1e-9 {
		t.Fatalf("sharded snapshot differs from updater by %g, want <= 1e-9", d)
	}

	b := wspec.Bounds()
	boxes := []grid.Box{
		b,
		{X0: b.X1 / 4, X1: b.X1 / 2, Y0: b.Y1 / 4, Y1: b.Y1 / 2, T0: b.T1 / 4, T1: b.T1 / 2},
		{X0: 3, X1: 3, Y0: 2, Y1: 2, T0: b.T1 / 2, T1: b.T1 / 2},
	}
	for _, box := range boxes {
		want, err := u.BoxMass(box)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sg.BoxMass(box)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("box %+v: sharded mass %g, updater %g", box, got, want)
		}
	}

	want := checkTopK(t, sg, u, 8)
	for _, vd := range want[:min(3, len(want))] {
		gv, err := sg.At(vd.X, vd.Y, vd.T)
		if err != nil {
			t.Fatal(err)
		}
		if uv := u.At(vd.X, vd.Y, vd.T); !closeTo(gv, uv) {
			t.Fatalf("At(%d,%d,%d): sharded %g, updater %g", vd.X, vd.Y, vd.T, gv, uv)
		}
	}
}

// closeTo is the sharded contract: equal within 1e-9 (relative above 1).
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

func mustTopK(t *testing.T, u *core.Updater, k int) []grid.VoxelDensity {
	t.Helper()
	top, err := u.TopK(k)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// checkTopK asserts the sharded top-k matches the updater's within 1e-9,
// tolerating ties: entry i carries the reference's i-th density, the voxel
// the sharded window names there really has that density (a tied voxel
// may stand in for another), and no voxel appears twice. It returns the
// reference list.
func checkTopK(t *testing.T, sg *StreamGroup, u *core.Updater, k int) []grid.VoxelDensity {
	t.Helper()
	want := mustTopK(t, u, k)
	got, err := sg.TopK(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("top-%d: sharded has %d entries, updater %d", k, len(got), len(want))
	}
	seen := make(map[voxel]bool, len(got))
	for i, g := range got {
		v := voxel{g.X, g.Y, g.T}
		if seen[v] {
			t.Fatalf("top-%d[%d]: voxel %v listed twice", k, i, v)
		}
		seen[v] = true
		if !closeTo(g.V, want[i].V) {
			t.Fatalf("top-%d[%d]: sharded density %g, updater %g", k, i, g.V, want[i].V)
		}
		if uv := u.At(g.X, g.Y, g.T); !closeTo(uv, want[i].V) {
			t.Fatalf("top-%d[%d]: sharded names voxel %v of density %g, updater's entry is %g",
				k, i, v, uv, want[i].V)
		}
	}
	return want
}

// TestShardedStreamMatchesUpdater: a live window carved across R ranks
// answers every analytics query like the single-process sketch path — for
// R in {1, 2, 4}, over both transports, through ingest and window slides.
func TestShardedStreamMatchesUpdater(t *testing.T) {
	for _, tr := range transports {
		for _, r := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/r%d", tr.name, r), func(t *testing.T) {
				spec := testSpec(t, 20, 1)
				pts := testPoints(800, spec.Domain, 5)
				cl := testCluster(t, r, tr.tcp)
				sg, err := cl.NewStream(spec, 1)
				if err != nil {
					t.Fatal(err)
				}
				defer sg.Release()
				u, err := core.NewUpdater(spec, core.UpdaterConfig{Options: core.Options{Threads: 1}})
				if err != nil {
					t.Fatal(err)
				}
				defer u.Release()

				half := len(pts) / 2
				if err := sg.Add(pts[:half]...); err != nil {
					t.Fatal(err)
				}
				u.Add(pts[:half]...)
				compareShardStream(t, sg, u)

				// Slide the window forward past a quarter of its length,
				// expiring early events on both sides, then keep ingesting.
				to := spec.Domain.T0 + spec.Domain.GT + 5*spec.TRes
				ga, ge, err := sg.AdvanceTo(to)
				if err != nil {
					t.Fatal(err)
				}
				ua, ue := u.AdvanceTo(to)
				if ga != ua || ge != ue {
					t.Fatalf("advance: sharded (%d,%d), updater (%d,%d)", ga, ge, ua, ue)
				}
				compareShardStream(t, sg, u)

				late := make([]grid.Point, 0, len(pts)-half)
				for _, p := range pts[half:] {
					p.T += 5 * spec.TRes // inside the slid window
					late = append(late, p)
				}
				if err := sg.Add(late...); err != nil {
					t.Fatal(err)
				}
				u.Add(late...)
				compareShardStream(t, sg, u)
			})
		}
	}
}

// TestShardedStreamConcurrentIngest hammers a sharded window with
// concurrent ingests and analytics queries on both transports (the race
// detector is the main assertion), then checks the settled window still
// matches a single-process updater fed the same events.
func TestShardedStreamConcurrentIngest(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			spec := testSpec(t, 16, 1)
			pts := testPoints(600, spec.Domain, 23)
			cl := testCluster(t, 2, tr.tcp)
			sg, err := cl.NewStream(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer sg.Release()

			stop := make(chan struct{})
			var wg sync.WaitGroup
			errc := make(chan error, 4)
			box := grid.Box{X0: 0, X1: 10, Y0: 0, Y1: 10, T0: 0, T1: 10}
			for q := 0; q < 2; q++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := sg.BoxMass(box); err != nil {
							errc <- err
							return
						}
						if _, err := sg.TopK(4); err != nil {
							errc <- err
							return
						}
					}
				}()
			}
			const batch = 50
			for off := 0; off < len(pts); off += batch {
				end := min(off+batch, len(pts))
				if err := sg.Add(pts[off:end]...); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			select {
			case err := <-errc:
				t.Fatal(err)
			default:
			}

			u, err := core.NewUpdater(spec, core.UpdaterConfig{Options: core.Options{Threads: 1}})
			if err != nil {
				t.Fatal(err)
			}
			defer u.Release()
			u.Add(pts...)
			compareShardStream(t, sg, u)
		})
	}
}

// TestRankErrorAttribution: failures carry the rank id and protocol phase,
// both from local wrapping and across the wire from a rank-side reply.
func TestRankErrorAttribution(t *testing.T) {
	err := rankErr(3, "gather", fmt.Errorf("boom"))
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("rankErr returned %T, want *RankError", err)
	}
	if re.Rank != 3 || re.Phase != "gather" {
		t.Fatalf("RankError = %+v", re)
	}
	if got := err.Error(); got != "dist: rank 3: gather: boom" {
		t.Fatalf("Error() = %q", got)
	}
	if rankErr(1, "scatter", nil) != nil {
		t.Fatal("rankErr(nil) should pass nil through")
	}

	// A rank-side failure (unknown algorithm survives the coordinator's
	// fast-fail only if spoofed; use a closed stream id instead) comes back
	// as msgErr and is re-attributed with the server's own phase.
	cl := testCluster(t, 1, false)
	if _, err := cl.call(0, encodeIngest(999, nil), "ingest"); err == nil {
		t.Fatal("ingest into unknown stream should fail")
	} else if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("rank-side failure not attributed: %v", err)
	}
}
