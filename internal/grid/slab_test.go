package grid

import (
	"math"
	"testing"
)

func slabSpec(t *testing.T, gt float64, tres float64) Spec {
	t.Helper()
	s, err := NewSpec(Domain{GX: 40, GY: 30, GT: gt}, 1, tres, 3, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCarveTTilesExactly checks that for every rank count the slabs tile the
// time axis with no gap and no overlap, including non-divisible sizes.
func TestCarveTTilesExactly(t *testing.T) {
	s := slabSpec(t, 47, 1)
	for _, r := range []int{1, 2, 3, 4, 5, 7, 13, 46, 47, 48, 200} {
		slabs := s.CarveT(r)
		want := r
		if want > s.Gt {
			want = s.Gt
		}
		if len(slabs) != want {
			t.Fatalf("CarveT(%d): %d slabs, want %d", r, len(slabs), want)
		}
		next := 0
		for i, sl := range slabs {
			if sl.Index != i {
				t.Errorf("CarveT(%d) slab %d: Index=%d", r, i, sl.Index)
			}
			if sl.T0 != next {
				t.Errorf("CarveT(%d) slab %d starts at %d, want %d (gap/overlap)", r, i, sl.T0, next)
			}
			if sl.T1 < sl.T0 {
				t.Errorf("CarveT(%d) slab %d empty: [%d,%d]", r, i, sl.T0, sl.T1)
			}
			if sl.Spec.Gt != sl.T1-sl.T0+1 || sl.Spec.OT != sl.T0 {
				t.Errorf("CarveT(%d) slab %d sub-spec Gt=%d OT=%d, want Gt=%d OT=%d",
					r, i, sl.Spec.Gt, sl.Spec.OT, sl.T1-sl.T0+1, sl.T0)
			}
			next = sl.T1 + 1
		}
		if next != s.Gt {
			t.Errorf("CarveT(%d) ends at %d, want %d", r, next, s.Gt)
		}
	}
}

// TestSubSpecCentersBitwise asserts the core exactness property: a
// sub-spec's voxel centers are bitwise identical to the root's centers at
// the corresponding root layers, even for non-integer origins/resolutions.
func TestSubSpecCentersBitwise(t *testing.T) {
	s, err := NewSpec(Domain{X0: -3.7, Y0: 11.1, T0: 2.3, GX: 40, GY: 30, GT: 29}, 0.7, 1.3, 3, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{2, 3, 5} {
		for _, sl := range s.CarveT(r) {
			for T := 0; T < sl.Spec.Gt; T++ {
				if got, want := sl.Spec.CenterT(T), s.CenterT(T+sl.T0); got != want {
					t.Fatalf("r=%d slab %d: CenterT(%d)=%v, root CenterT(%d)=%v",
						r, sl.Index, T, got, T+sl.T0, want)
				}
			}
			if sl.Spec.CenterX(3) != s.CenterX(3) || sl.Spec.CenterY(4) != s.CenterY(4) {
				t.Fatalf("spatial centers changed in sub-spec")
			}
		}
	}
}

// TestSubSpecVoxelOf checks that points map into the slab's local frame:
// interior points land on their root layer minus T0, and points outside the
// temporal window clamp to the slab's first/last layer.
func TestSubSpecVoxelOf(t *testing.T) {
	s := slabSpec(t, 30, 1)
	sub := s.SubSpecT(10, 19)
	cases := []struct {
		pt    float64
		wantT int
	}{
		{14.5, 4}, // interior: root layer 14 -> local 4
		{10.0, 0}, // first owned layer
		{19.9, 9}, // last owned layer
		{3.0, 0},  // below the window: clamps to local 0
		{27.0, 9}, // above the window: clamps to local Gt-1
	}
	for _, c := range cases {
		_, _, T := sub.VoxelOf(Point{X: 1, Y: 1, T: c.pt})
		if T != c.wantT {
			t.Errorf("VoxelOf(t=%g) local layer = %d, want %d", c.pt, T, c.wantT)
		}
	}
	// VoxelOf on the root spec is unchanged by the refactor.
	if _, _, T := s.VoxelOf(Point{X: 1, Y: 1, T: 14.5}); T != 14 {
		t.Errorf("root VoxelOf(t=14.5) = %d, want 14", T)
	}
}

// TestSlabNeedsLayerBruteForce cross-checks the halo criterion against the
// definition: a point is needed by a slab iff its root influence box
// intersects the slab's owned box.
func TestSlabNeedsLayerBruteForce(t *testing.T) {
	s := slabSpec(t, 47, 1)
	for _, r := range []int{1, 2, 4, 7} {
		for _, sl := range s.CarveT(r) {
			for T := 0; T < s.Gt; T++ {
				infl := Box{0, s.Gx - 1, 0, s.Gy - 1, T - s.Ht, T + s.Ht}.Clip(s.Bounds())
				owned := Box{0, s.Gx - 1, 0, s.Gy - 1, sl.T0, sl.T1}
				want := infl.Intersects(owned)
				if got := sl.NeedsLayer(T, s.Ht); got != want {
					t.Errorf("r=%d slab [%d,%d]: NeedsLayer(%d) = %v, want %v",
						r, sl.T0, sl.T1, T, got, want)
				}
			}
		}
	}
}

// TestSubSpecInfluenceBoxSuperset verifies that for a halo point outside a
// slab, the sub-spec influence box covers every local voxel whose center
// lies within the point's continuous bandwidth cylinder.
func TestSubSpecInfluenceBoxSuperset(t *testing.T) {
	s := slabSpec(t, 47, 1)
	sub := s.SubSpecT(20, 29)
	for _, pt := range []float64{16.2, 18.9, 19.999, 30.0, 32.5, 33.4} {
		p := Point{X: 20, Y: 15, T: pt}
		box := sub.InfluenceBox(p)
		for T := 0; T < sub.Gt; T++ {
			dt := sub.CenterT(T) - p.T
			if math.Abs(dt) <= s.HT && (T < box.T0 || T > box.T1) {
				t.Errorf("t=%g: local layer %d inside bandwidth but outside box [%d,%d]",
					pt, T, box.T0, box.T1)
			}
		}
	}
}
