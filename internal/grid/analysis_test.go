package grid

import (
	"math"
	"testing"
)

func filledGrid(t *testing.T) *Grid {
	t.Helper()
	s := mustSpec(t, Domain{X0: 1, Y0: 2, T0: 3, GX: 6, GY: 5, GT: 4}, 1, 1, 2, 2)
	g, err := NewGrid(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for X := 0; X < s.Gx; X++ {
		for Y := 0; Y < s.Gy; Y++ {
			for T := 0; T < s.Gt; T++ {
				g.Data[g.Idx(X, Y, T)] = float64(X*100 + Y*10 + T)
			}
		}
	}
	return g
}

func TestTemporalProfileAndSpatialDensity(t *testing.T) {
	g := filledGrid(t)
	s := g.Spec
	profile := g.TemporalProfile()
	if len(profile) != s.Gt {
		t.Fatalf("profile length %d, want %d", len(profile), s.Gt)
	}
	for T := 0; T < s.Gt; T++ {
		want := 0.0
		for X := 0; X < s.Gx; X++ {
			for Y := 0; Y < s.Gy; Y++ {
				want += g.At(X, Y, T) * s.SRes * s.SRes
			}
		}
		if math.Abs(profile[T]-want) > 1e-9 {
			t.Errorf("profile[%d] = %g, want %g", T, profile[T], want)
		}
	}
	// Total mass via profile equals BoxMass of everything.
	var viaProfile float64
	for _, v := range profile {
		viaProfile += v * s.TRes
	}
	if all := g.BoxMass(s.Bounds()); math.Abs(all-viaProfile) > 1e-9 {
		t.Errorf("profile mass %g != box mass %g", viaProfile, all)
	}
}

func TestBoxMass(t *testing.T) {
	g := filledGrid(t)
	b := Box{X0: 1, X1: 2, Y0: 0, Y1: 1, T0: 1, T1: 3}
	want := 0.0
	for X := b.X0; X <= b.X1; X++ {
		for Y := b.Y0; Y <= b.Y1; Y++ {
			for T := b.T0; T <= b.T1; T++ {
				want += g.At(X, Y, T)
			}
		}
	}
	want *= g.Spec.SRes * g.Spec.SRes * g.Spec.TRes
	if got := g.BoxMass(b); math.Abs(got-want) > 1e-9 {
		t.Errorf("BoxMass = %g, want %g", got, want)
	}
	// Out-of-grid parts are clipped, fully-outside boxes are zero.
	big := Box{X0: -10, X1: 100, Y0: -10, Y1: 100, T0: -10, T1: 100}
	if got := g.BoxMass(big); math.Abs(got-g.BoxMass(g.Spec.Bounds())) > 1e-9 {
		t.Error("oversized box should clip to the grid")
	}
	if g.BoxMass(Box{X0: 50, X1: 60, Y0: 0, Y1: 1, T0: 0, T1: 1}) != 0 {
		t.Error("disjoint box should have zero mass")
	}
}

func TestThreshold(t *testing.T) {
	s := mustSpec(t, Domain{GX: 4, GY: 4, GT: 10}, 1, 1, 1, 1)
	g, err := NewGrid(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two hot runs in one column, one in another.
	g.Data[g.Idx(1, 1, 2)] = 5
	g.Data[g.Idx(1, 1, 3)] = 6
	g.Data[g.Idx(1, 1, 7)] = 9
	g.Data[g.Idx(3, 0, 0)] = 4
	boxes := g.Threshold(4)
	if len(boxes) != 3 {
		t.Fatalf("got %d boxes, want 3: %+v", len(boxes), boxes)
	}
	want := map[Box]bool{
		{X0: 1, X1: 1, Y0: 1, Y1: 1, T0: 2, T1: 3}: true,
		{X0: 1, X1: 1, Y0: 1, Y1: 1, T0: 7, T1: 7}: true,
		{X0: 3, X1: 3, Y0: 0, Y1: 0, T0: 0, T1: 0}: true,
	}
	for _, b := range boxes {
		if !want[b] {
			t.Errorf("unexpected box %+v", b)
		}
	}
	if n := len(g.Threshold(100)); n != 0 {
		t.Errorf("level above max should give no boxes, got %d", n)
	}
}

func TestTopK(t *testing.T) {
	s := mustSpec(t, Domain{GX: 4, GY: 3, GT: 5}, 1, 1, 1, 1)
	g, err := NewGrid(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Data[g.Idx(2, 1, 4)] = 9
	g.Data[g.Idx(0, 0, 0)] = 7
	g.Data[g.Idx(3, 2, 2)] = 5
	g.Data[g.Idx(1, 1, 1)] = 5

	top := g.TopK(3)
	if len(top) != 3 {
		t.Fatalf("got %d voxels, want 3", len(top))
	}
	if top[0] != (VoxelDensity{X: 2, Y: 1, T: 4, V: 9}) {
		t.Errorf("top[0] = %+v", top[0])
	}
	if top[1] != (VoxelDensity{X: 0, Y: 0, T: 0, V: 7}) {
		t.Errorf("top[1] = %+v", top[1])
	}
	// Tie at 5: the lower flat index wins, which is (1,1,1).
	if top[2] != (VoxelDensity{X: 1, Y: 1, T: 1, V: 5}) {
		t.Errorf("top[2] = %+v", top[2])
	}

	// k = 4 includes the second 5 after the first; order stays descending.
	top = g.TopK(4)
	if top[3] != (VoxelDensity{X: 3, Y: 2, T: 2, V: 5}) {
		t.Errorf("top[3] = %+v", top[3])
	}

	// The peak always agrees with Max.
	v, X, Y, T := g.Max()
	if one := g.TopK(1); len(one) != 1 || one[0] != (VoxelDensity{X: X, Y: Y, T: T, V: v}) {
		t.Errorf("TopK(1) = %+v, Max = (%g at %d,%d,%d)", one, v, X, Y, T)
	}

	// k larger than the volume returns every voxel, still sorted.
	all := g.TopK(1000)
	if len(all) != s.Voxels() {
		t.Fatalf("TopK(1000) returned %d voxels, want %d", len(all), s.Voxels())
	}
	for i := 1; i < len(all); i++ {
		if all[i].V > all[i-1].V {
			t.Fatalf("not descending at %d: %+v > %+v", i, all[i], all[i-1])
		}
	}
	if g.TopK(0) != nil {
		t.Error("TopK(0) should be nil")
	}
}

// TestMergeTopK: selecting from one list of merged totals follows the
// sequential scan's order — density first, ties by ascending flat index,
// whatever order the candidates arrive in — returns the whole list sorted
// when k exceeds it, and nothing for k <= 0.
func TestMergeTopK(t *testing.T) {
	s := mustSpec(t, Domain{GX: 4, GY: 3, GT: 5}, 1, 1, 1, 1)
	cands := []VoxelDensity{
		{X: 3, Y: 2, T: 2, V: 5}, // flat index 57
		{X: 2, Y: 1, T: 4, V: 9},
		{X: 1, Y: 1, T: 1, V: 5}, // flat index 21
		{X: 0, Y: 0, T: 0, V: 7},
		{X: 0, Y: 2, T: 3, V: 5}, // flat index 13
	}
	sorted := []VoxelDensity{cands[1], cands[3], cands[4], cands[2], cands[0]}
	for _, c := range []struct {
		k    int
		want []VoxelDensity
	}{
		{3, sorted[:3]},
		{4, sorted[:4]},
		{len(cands), sorted},
		{100, sorted},
		{0, nil},
		{-1, nil},
	} {
		got := MergeTopK(s, c.k, cands)
		if len(got) != len(c.want) || (c.want == nil) != (got == nil) {
			t.Fatalf("k=%d: got %+v, want %+v", c.k, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("k=%d: rank %d = %+v, want %+v", c.k, i, got[i], c.want[i])
			}
		}
	}
}
