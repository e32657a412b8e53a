package core

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/grid"
)

// TestLinearity: STKDE is a sum of per-event terms, so the estimate of a
// union is the count-weighted average of the parts' estimates:
// (nA+nB)*f_{A∪B} = nA*f_A + nB*f_B.
func TestLinearity(t *testing.T) {
	spec := testSpec(t, 20, 16, 12, 3, 2)
	a := testPoints(120, spec.Domain, 1)
	b := data.Hotspot{}.Generate(80, spec.Domain, 2)
	union := append(append([]grid.Point{}, a...), b...)

	fa, err := Estimate(AlgPBSYM, a, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Estimate(AlgPBSYM, b, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fu, err := Estimate(AlgPBSYM, union, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nA, nB := float64(len(a)), float64(len(b))
	for i := range fu.Grid.Data {
		want := (nA*fa.Grid.Data[i] + nB*fb.Grid.Data[i]) / (nA + nB)
		if math.Abs(fu.Grid.Data[i]-want) > 1e-14 {
			t.Fatalf("linearity violated at voxel %d: %g vs %g", i, fu.Grid.Data[i], want)
		}
	}
}

// TestTranslationInvariance: shifting the domain and all events by the
// same offset must not change the density field.
func TestTranslationInvariance(t *testing.T) {
	check := func(oxRaw, oyRaw, otRaw int16) bool {
		ox := float64(oxRaw) / 100
		oy := float64(oyRaw) / 100
		ot := float64(otRaw) / 100
		spec := testSpec(t, 12, 10, 8, 2.5, 1.5)
		pts := testPoints(60, spec.Domain, 3)

		shifted := spec.Domain
		shifted.X0 += ox
		shifted.Y0 += oy
		shifted.T0 += ot
		spec2, err := grid.NewSpec(shifted, spec.SRes, spec.TRes, spec.HS, spec.HT)
		if err != nil {
			return false
		}
		pts2 := make([]grid.Point, len(pts))
		for i, p := range pts {
			pts2[i] = grid.Point{X: p.X + ox, Y: p.Y + oy, T: p.T + ot}
		}
		r1, err := Estimate(AlgPBSYM, pts, spec, Options{})
		if err != nil {
			return false
		}
		r2, err := Estimate(AlgPBSYM, pts2, spec2, Options{})
		if err != nil {
			return false
		}
		for i := range r1.Grid.Data {
			if math.Abs(r1.Grid.Data[i]-r2.Grid.Data[i]) > 1e-9*(1+math.Abs(r1.Grid.Data[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestScaleInvariantVoxelMass: refining the resolution must preserve the
// integrated mass of the estimate (it is a Riemann sum of the same
// continuous function).
func TestScaleInvariantVoxelMass(t *testing.T) {
	d := grid.Domain{GX: 40, GY: 40, GT: 30}
	inner := grid.Domain{X0: 10, Y0: 10, T0: 8, GX: 20, GY: 20, GT: 14}
	pts := data.Uniform{}.Generate(200, inner, 5)
	var masses []float64
	for _, res := range []float64{2, 1, 0.5} {
		spec, err := grid.NewSpec(d, res, res, 8, 7)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Estimate(AlgPBSYM, pts, spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		masses = append(masses, r.Grid.Sum()*spec.SRes*spec.SRes*spec.TRes)
	}
	for i, m := range masses {
		if math.Abs(m-1) > 0.05 {
			t.Errorf("mass at resolution level %d = %.4f, want ~1", i, m)
		}
	}
	// Finer resolutions should approximate 1 at least as well.
	if math.Abs(masses[2]-1) > math.Abs(masses[0]-1)+0.01 {
		t.Errorf("mass did not improve with resolution: %v", masses)
	}
}

// TestNonNegativity: density estimates are never negative, for any
// algorithm and dataset.
func TestNonNegativity(t *testing.T) {
	spec := testSpec(t, 16, 16, 10, 3, 2)
	pts := data.SparseGlobal{}.Generate(300, spec.Domain, 7)
	for _, alg := range Algorithms() {
		res, err := Estimate(alg, pts, spec, Options{Threads: 2, Decomp: [3]int{2, 2, 2}})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		for i, v := range res.Grid.Data {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("%s produced invalid density %g at voxel %d", alg, v, i)
			}
		}
	}
}

// TestUpdaterConcurrentAdd: concurrent small adds from many goroutines
// must serialize correctly (the updater is mutex-guarded).
func TestUpdaterConcurrentAdd(t *testing.T) {
	spec := testSpec(t, 16, 16, 10, 2, 2)
	pts := testPoints(400, spec.Domain, 9)
	u, err := NewUpdater(spec, UpdaterConfig{Options: Options{Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Release()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(pts); i += 8 {
				u.Add(pts[i])
			}
		}()
	}
	wg.Wait()
	if u.N() != len(pts) {
		t.Fatalf("N = %d, want %d", u.N(), len(pts))
	}
	want, err := Estimate(AlgPBSYM, pts, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := u.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxRelDiff(want.Grid, snap); d > 1e-10 {
		t.Errorf("concurrent adds differ from batch by %g", d)
	}
}

// TestQueryMatchesUpdater: the streaming and query paths agree at voxel
// centers.
func TestQueryMatchesUpdater(t *testing.T) {
	spec := testSpec(t, 14, 12, 8, 3, 2)
	pts := testPoints(150, spec.Domain, 12)
	u, err := NewUpdater(spec, UpdaterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Release()
	u.Add(pts...)
	snap, err := u.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(pts, spec, Options{})
	for X := 0; X < spec.Gx; X += 3 {
		for Y := 0; Y < spec.Gy; Y += 2 {
			for T := 0; T < spec.Gt; T += 2 {
				got := q.At(spec.CenterX(X), spec.CenterY(Y), spec.CenterT(T))
				want := snap.At(X, Y, T)
				if math.Abs(got-want) > 1e-13 {
					t.Fatalf("query/updater mismatch at (%d,%d,%d): %g vs %g",
						X, Y, T, got, want)
				}
			}
		}
	}
}

// TestUpdaterCompactionAnywhere: a compaction forced between any two
// mutations — it zeroes the ring and replays the live
// events in live order — never changes what the window
// holds. A twin that compacts after every mutation keeps the same live
// set as an updater that never does, and both agree with batch estimation
// after every step, across events inside, just past and far ahead of the
// window, retractions, and advances on both sides of Ht and Gt.
func TestUpdaterCompactionAnywhere(t *testing.T) {
	spec := updaterSpec(t)
	plain, err := NewUpdater(spec, UpdaterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Release()
	twin, err := NewUpdater(spec, UpdaterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Release()
	rng := lcg(31)
	frontier := spec.Domain.T0 + 8.0
	for step := 0; step < 40; step++ {
		rngP, rngT := rng, rng
		mutateStream(plain, &rngP, frontier, 1, true)
		frontier = mutateStream(twin, &rngT, frontier, 1, true)
		rng = rngT
		twin.Compact()
		expectSameLive(t, "compacted twin", plain, twin)
		checkUpdater(t, "never compacted", plain, plain.Live())
		checkUpdater(t, "compacted after every step", twin, twin.Live())
	}
	if st := plain.Stats(); st.AdvanceReapplied == 0 || st.Advances == 0 || st.Compactions != 0 {
		t.Fatalf("scenario did not exercise the events ahead uncompacted: %+v", st)
	}
}
