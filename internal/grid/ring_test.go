package grid

import (
	"math"
	"testing"
)

func ringSpec(t *testing.T, gt int) Spec {
	t.Helper()
	s, err := NewSpec(Domain{GX: 4, GY: 3, GT: float64(gt)}, 1, 1, 1.5, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ringVoxel returns the address of logical voxel (X, Y, T) of the ring,
// T in [0, Gt+Ht): the hidden layers included.
func ringVoxel(r *Ring, X, Y, T int) *float64 {
	return &r.Data[(X*r.Spec().Gy+Y)*r.Layers()+r.PhysOf(T)]
}

// fillLogical stamps every voxel, hidden layers included, with a value
// encoding its root-frame coordinates, so rotations are detectable.
func fillLogical(r *Ring) {
	s := r.Spec()
	for X := 0; X < s.Gx; X++ {
		for Y := 0; Y < s.Gy; Y++ {
			for T := 0; T < r.Layers(); T++ {
				*ringVoxel(r, X, Y, T) = encode(X, Y, T+s.OT)
			}
		}
	}
}

func encode(X, Y, rootT int) float64 {
	return float64(X)*1e6 + float64(Y)*1e3 + float64(rootT)
}

func TestRingAdvanceRotates(t *testing.T) {
	spec := ringSpec(t, 8)
	r, err := NewRing(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Layers() != spec.Gt+spec.Ht || spec.Ht < 2 {
		t.Fatalf("ring of %d layers for Gt %d, Ht %d", r.Layers(), spec.Gt, spec.Ht)
	}
	fillLogical(r)
	// Advance in uneven steps so base wraps several times, some landing
	// hidden layers inside the window and some skipping past them.
	advanced := 0
	for _, k := range []int{3, 1, 5, 2, 7, spec.Ht, spec.Ht + 1} {
		oldSpec := r.Spec()
		r.Advance(k, 1+k%3)
		advanced += k
		s := r.Spec()
		if s.OT != oldSpec.OT+k {
			t.Fatalf("after Advance(%d): OT = %d, want %d", k, s.OT, oldSpec.OT+k)
		}
		// Surviving layers, hidden ones included, keep their root-frame
		// stamps; the freed layers are the newest hidden ones, and 0.
		for X := 0; X < s.Gx; X++ {
			for Y := 0; Y < s.Gy; Y++ {
				for T := 0; T < r.Layers(); T++ {
					want := encode(X, Y, T+s.OT)
					if T >= r.Layers()-k {
						want = 0
					}
					if got := *ringVoxel(r, X, Y, T); got != want {
						t.Fatalf("Advance(%d): layer %d of (%d,%d) = %g, want %g", k, T, X, Y, got, want)
					}
					if T < s.Gt && r.At(X, Y, T) != want {
						t.Fatalf("Advance(%d): At(%d,%d,%d) = %g, want %g", k, X, Y, T, r.At(X, Y, T), want)
					}
				}
			}
		}
		fillLogical(r) // restamp for the next step
	}
	if r.Spec().OT != advanced {
		t.Fatalf("cumulative OT = %d, want %d", r.Spec().OT, advanced)
	}
}

func TestRingAdvanceWholeWindow(t *testing.T) {
	spec := ringSpec(t, 5)
	r, err := NewRing(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	fillLogical(r)
	r.Advance(spec.Gt+spec.Ht+1, 2) // larger than the ring: everything is freed
	s := r.Spec()
	if s.OT != spec.Gt+spec.Ht+1 {
		t.Fatalf("OT = %d, want %d", s.OT, spec.Gt+spec.Ht+1)
	}
	for i, v := range r.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %g after whole-window advance, want 0", i, v)
		}
	}
}

func TestRingSegmentsCoverContiguously(t *testing.T) {
	spec := ringSpec(t, 7)
	r, err := NewRing(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Advance(4, 1) // base = 4: ranges crossing the last physical layer wrap
	for t0 := 0; t0 < r.Layers(); t0++ {
		for t1 := t0; t1 < r.Layers(); t1++ {
			segs := r.Segments(t0, t1)
			if len(segs) == 0 || len(segs) > 2 {
				t.Fatalf("Segments(%d,%d) = %v: want 1 or 2 runs", t0, t1, segs)
			}
			next := t0
			for _, sg := range segs {
				if sg.T0 != next {
					t.Fatalf("Segments(%d,%d) = %v: gap before %d", t0, t1, segs, sg.T0)
				}
				for T := sg.T0; T <= sg.T1; T++ {
					phys := sg.Phys + (T - sg.T0)
					if phys != r.PhysOf(T) {
						t.Fatalf("Segments(%d,%d): layer %d maps to phys %d, want %d",
							t0, t1, T, phys, r.PhysOf(T))
					}
					if phys >= r.Layers() {
						t.Fatalf("Segments(%d,%d): run wraps past the last layer", t0, t1)
					}
				}
				next = sg.T1 + 1
			}
			if next != t1+1 {
				t.Fatalf("Segments(%d,%d) = %v: covers up to %d", t0, t1, segs, next-1)
			}
		}
	}
	if segs := r.Segments(3, 2); segs != nil {
		t.Fatalf("Segments(3,2) = %v, want nil", segs)
	}
}

func TestRingSnapshotLogicalOrder(t *testing.T) {
	spec := ringSpec(t, 6)
	r, err := NewRing(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Advance(4, 1)
	fillLogical(r)
	g, err := r.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Spec()
	if g.Spec != s {
		t.Fatalf("snapshot spec = %+v, want %+v", g.Spec, s)
	}
	for X := 0; X < s.Gx; X++ {
		for Y := 0; Y < s.Gy; Y++ {
			for T := 0; T < s.Gt; T++ {
				if got, want := g.At(X, Y, T), r.At(X, Y, T); got != want {
					t.Fatalf("snapshot At(%d,%d,%d) = %g, want %g", X, Y, T, got, want)
				}
			}
		}
	}
}

func TestRingBudgetAccounting(t *testing.T) {
	spec := ringSpec(t, 4)
	want := int64(spec.Gx*spec.Gy*(spec.Gt+spec.Ht)) * 8
	if RingBytes(spec) != want {
		t.Fatalf("RingBytes = %d, want Gt+Ht layers = %d", RingBytes(spec), want)
	}
	b := NewBudget(want)
	r, err := NewRing(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Used(); got != want {
		t.Fatalf("budget used = %d, want %d", got, want)
	}
	if _, err := NewRing(spec, b); err == nil {
		t.Fatal("second ring fit in a one-ring budget")
	}
	r.Release()
	if got := b.Used(); got != 0 {
		t.Fatalf("budget used after Release = %d, want 0", got)
	}
}

func TestRingCenterTTracksRootFrame(t *testing.T) {
	spec := ringSpec(t, 6)
	r, err := NewRing(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	root := spec
	r.Advance(9, 1)
	s := r.Spec()
	for T := 0; T < s.Gt; T++ {
		want := root.Domain.T0 + (float64(T+9)+0.5)*root.TRes
		if got := s.CenterT(T); math.Abs(got-want) != 0 {
			t.Fatalf("CenterT(%d) = %g, want %g", T, got, want)
		}
	}
}

// TestRestoreRingCopiesVisibleLayers: a restored ring holds the snapshot's
// window in its visible layers, zeroed hidden layers, and does not share
// the snapshot's array.
func TestRestoreRingCopiesVisibleLayers(t *testing.T) {
	spec := ringSpec(t, 7)
	r, err := NewRing(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Advance(5, 1)
	fillLogical(r)
	g, err := r.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBudget(RingBytes(spec))
	rr, err := RestoreRing(g, b)
	if err != nil {
		t.Fatal(err)
	}
	if b.Used() != RingBytes(spec) || rr.Spec() != r.Spec() || rr.PhysOf(0) != 0 {
		t.Fatalf("restored ring: %d bytes charged, spec %+v, base %d", b.Used(), rr.Spec(), rr.PhysOf(0))
	}
	s := rr.Spec()
	for X := 0; X < s.Gx; X++ {
		for Y := 0; Y < s.Gy; Y++ {
			for T := 0; T < rr.Layers(); T++ {
				want := 0.0
				if T < s.Gt {
					want = r.At(X, Y, T)
				}
				if got := *ringVoxel(rr, X, Y, T); got != want {
					t.Fatalf("restored layer %d of (%d,%d) = %g, want %g", T, X, Y, got, want)
				}
			}
		}
	}
	g.Data[0]++
	if rr.At(0, 0, 0) == g.Data[0] {
		t.Fatal("restored ring shares the snapshot's array")
	}
	rr.Release()
	if b.Used() != 0 {
		t.Fatalf("budget used after Release = %d, want 0", b.Used())
	}
}
