package grid

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func mustSpec(t *testing.T, d Domain, sres, tres, hs, ht float64) Spec {
	t.Helper()
	s, err := NewSpec(d, sres, tres, hs, ht)
	if err != nil {
		t.Fatalf("NewSpec: %v", err)
	}
	return s
}

func TestNewSpecValidation(t *testing.T) {
	good := Domain{GX: 10, GY: 10, GT: 10}
	cases := []struct {
		name            string
		d               Domain
		sres, tres      float64
		hs, ht          float64
		wantErr         bool
		wantGx, wantHsV int
	}{
		{"ok", good, 1, 1, 3, 2, false, 10, 3},
		{"fractional resolution", good, 0.4, 0.4, 3, 2, false, 25, 8},
		{"bandwidth not multiple", good, 2, 2, 3, 3, false, 5, 2},
		{"zero extent", Domain{GX: 0, GY: 1, GT: 1}, 1, 1, 1, 1, true, 0, 0},
		{"negative extent", Domain{GX: 5, GY: -1, GT: 1}, 1, 1, 1, 1, true, 0, 0},
		{"zero sres", good, 0, 1, 1, 1, true, 0, 0},
		{"zero tres", good, 1, 0, 1, 1, true, 0, 0},
		{"zero hs", good, 1, 1, 0, 1, true, 0, 0},
		{"negative ht", good, 1, 1, 1, -2, true, 0, 0},
		{"NaN origin", Domain{X0: math.NaN(), GX: 10, GY: 10, GT: 10}, 1, 1, 3, 2, true, 0, 0},
		{"NaN extent", Domain{GX: math.NaN(), GY: 10, GT: 10}, 1, 1, 3, 2, true, 0, 0},
		{"NaN sres", good, math.NaN(), 1, 3, 2, true, 0, 0},
		{"NaN hs", good, 1, 1, math.NaN(), 2, true, 0, 0},
		{"Inf ht", good, 1, 1, 3, math.Inf(1), true, 0, 0},
		{"Inf extent", Domain{GX: 10, GY: 10, GT: math.Inf(1)}, 1, 1, 3, 2, true, 0, 0},
		{"huge hs", good, 1, 1, 1e300, 2, true, 0, 0},
		{"tiny sres", good, 1e-300, 1, 3, 2, true, 0, 0},
		{"Gx at the limit", Domain{GX: maxVoxelCount, GY: 10, GT: 10}, 1, 1, 3, 2, true, 0, 0},
		{"Gx below the limit", Domain{GX: maxVoxelCount - 1, GY: 10, GT: 10}, 1, 1, 3, 2, false, maxVoxelCount - 1, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewSpec(c.d, c.sres, c.tres, c.hs, c.ht)
			if c.wantErr {
				if err == nil {
					t.Fatalf("expected error, got spec %+v", s)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if s.Gx != c.wantGx {
				t.Errorf("Gx = %d, want %d", s.Gx, c.wantGx)
			}
			if s.Hs != c.wantHsV {
				t.Errorf("Hs = %d, want %d", s.Hs, c.wantHsV)
			}
		})
	}
}

func TestSpecTable1Math(t *testing.T) {
	// The paper's Table 1 conventions: Gx = ceil(gx/sres), Hs = ceil(hs/sres).
	s := mustSpec(t, Domain{GX: 10.5, GY: 7, GT: 3.2}, 2, 0.5, 3, 1.2)
	if s.Gx != 6 || s.Gy != 4 || s.Gt != 7 {
		t.Errorf("grid dims = %dx%dx%d, want 6x4x7", s.Gx, s.Gy, s.Gt)
	}
	if s.Hs != 2 || s.Ht != 3 {
		t.Errorf("bandwidths = %d,%d, want 2,3", s.Hs, s.Ht)
	}
	if s.Voxels() != 6*4*7 {
		t.Errorf("Voxels = %d, want %d", s.Voxels(), 6*4*7)
	}
	if s.Bytes() != int64(6*4*7*8) {
		t.Errorf("Bytes = %d, want %d", s.Bytes(), 6*4*7*8)
	}
}

func TestVoxelOfClamping(t *testing.T) {
	s := mustSpec(t, Domain{X0: 10, Y0: -5, T0: 0, GX: 10, GY: 10, GT: 10}, 1, 1, 2, 2)
	cases := []struct {
		p        Point
		x, y, tt int
	}{
		{Point{X: 10, Y: -5, T: 0}, 0, 0, 0},
		{Point{X: 19.999, Y: 4.999, T: 9.999}, 9, 9, 9},
		{Point{X: 20, Y: 5, T: 10}, 9, 9, 9},     // far edge clamps
		{Point{X: -100, Y: 100, T: 50}, 0, 9, 9}, // out of domain clamps
		{Point{X: 14.5, Y: 0.5, T: 5.5}, 4, 5, 5},
	}
	for _, c := range cases {
		x, y, tt := s.VoxelOf(c.p)
		if x != c.x || y != c.y || tt != c.tt {
			t.Errorf("VoxelOf(%+v) = (%d,%d,%d), want (%d,%d,%d)", c.p, x, y, tt, c.x, c.y, c.tt)
		}
	}
}

func TestCenterInverseOfVoxelOf(t *testing.T) {
	s := mustSpec(t, Domain{X0: -3, Y0: 2, T0: 1, GX: 13, GY: 9, GT: 21}, 0.7, 1.3, 2, 2)
	for X := 0; X < s.Gx; X++ {
		for Y := 0; Y < s.Gy; Y += 2 {
			for T := 0; T < s.Gt; T += 3 {
				p := Point{X: s.CenterX(X), Y: s.CenterY(Y), T: s.CenterT(T)}
				gx, gy, gt := s.VoxelOf(p)
				if gx != X || gy != Y || gt != T {
					t.Fatalf("VoxelOf(center(%d,%d,%d)) = (%d,%d,%d)", X, Y, T, gx, gy, gt)
				}
			}
		}
	}
}

// TestInfluenceBoxCovers is the safety property behind every point-based
// algorithm: any voxel whose center passes the exact distance tests must be
// inside the point's influence box.
func TestInfluenceBoxCovers(t *testing.T) {
	check := func(seedX, seedY, seedT uint16, hsN, htN uint8) bool {
		s := mustSpec(t, Domain{X0: -5, Y0: 3, T0: -2, GX: 23, GY: 17, GT: 11},
			0.9, 1.1, 0.5+float64(hsN%40)/7, 0.5+float64(htN%40)/7)
		p := Point{
			X: s.Domain.X0 + s.Domain.GX*float64(seedX)/65535,
			Y: s.Domain.Y0 + s.Domain.GY*float64(seedY)/65535,
			T: s.Domain.T0 + s.Domain.GT*float64(seedT)/65535,
		}
		box := s.InfluenceBox(p)
		for X := 0; X < s.Gx; X++ {
			for Y := 0; Y < s.Gy; Y++ {
				for T := 0; T < s.Gt; T++ {
					dx := s.CenterX(X) - p.X
					dy := s.CenterY(Y) - p.Y
					dt := s.CenterT(T) - p.T
					inside := dx*dx+dy*dy < s.HS*s.HS && math.Abs(dt) <= s.HT
					if inside && !box.Contains(X, Y, T) {
						t.Logf("voxel (%d,%d,%d) in bandwidth but outside box %+v", X, Y, T, box)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGridIndexRoundTrip(t *testing.T) {
	s := mustSpec(t, Domain{GX: 5, GY: 7, GT: 3}, 1, 1, 1, 1)
	g, err := NewGrid(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for X := 0; X < s.Gx; X++ {
		for Y := 0; Y < s.Gy; Y++ {
			for T := 0; T < s.Gt; T++ {
				i := g.Idx(X, Y, T)
				if i < 0 || i >= len(g.Data) {
					t.Fatalf("Idx(%d,%d,%d) = %d out of range", X, Y, T, i)
				}
				if seen[i] {
					t.Fatalf("Idx(%d,%d,%d) = %d collides", X, Y, T, i)
				}
				seen[i] = true
			}
		}
	}
	if len(seen) != s.Voxels() {
		t.Fatalf("covered %d of %d voxels", len(seen), s.Voxels())
	}
	// T must be the innermost (stride 1) dimension.
	if g.Idx(1, 2, 2)-g.Idx(1, 2, 1) != 1 {
		t.Error("T stride is not 1")
	}
}

func TestGridAccessorsAndStats(t *testing.T) {
	s := mustSpec(t, Domain{GX: 4, GY: 4, GT: 4}, 1, 1, 1, 1)
	g, err := NewGrid(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Data[g.Idx(1, 2, 3)] = 5
	g.Data[g.Idx(1, 2, 3)] += 2.5
	if got := g.At(1, 2, 3); got != 7.5 {
		t.Errorf("At = %g, want 7.5", got)
	}
	g.Data[g.Idx(0, 0, 0)] += 0.5
	if got := g.Sum(); got != 8 {
		t.Errorf("Sum = %g, want 8", got)
	}
	v, X, Y, T := g.Max()
	if v != 7.5 || X != 1 || Y != 2 || T != 3 {
		t.Errorf("Max = %g at (%d,%d,%d), want 7.5 at (1,2,3)", v, X, Y, T)
	}
	g.Zero()
	if g.Sum() != 0 {
		t.Error("Zero did not clear the grid")
	}
}

func TestNormFactor(t *testing.T) {
	s := mustSpec(t, Domain{GX: 10, GY: 10, GT: 10}, 1, 1, 2, 4)
	want := 1.0 / (25 * 2 * 2 * 4)
	if got := s.NormFactor(25); math.Abs(got-want) > 1e-15 {
		t.Errorf("NormFactor(25) = %g, want %g", got, want)
	}
	if s.NormFactor(0) != 0 {
		t.Error("NormFactor(0) should be 0")
	}
}

func TestDomainContains(t *testing.T) {
	d := Domain{X0: 1, Y0: 2, T0: 3, GX: 10, GY: 10, GT: 10}
	if !d.Contains(Point{X: 5, Y: 5, T: 5}) {
		t.Error("interior point not contained")
	}
	if d.Contains(Point{X: 11, Y: 5, T: 5}) {
		t.Error("x == upper bound should be excluded")
	}
	if d.Contains(Point{X: 0.999, Y: 5, T: 5}) {
		t.Error("x below lower bound should be excluded")
	}
}

// TestExpiryOTMatchesPredicate: the expiry offset is exactly the first
// frame at which the predicate t+HT < CenterT(0) drops the event, for
// ordinary, boundary, fractional and absurd times.
func TestExpiryOTMatchesPredicate(t *testing.T) {
	spec := mustSpec(t, Domain{T0: 3.25, GX: 20, GY: 16, GT: 10}, 1, 0.3, 3, 2)
	expired := func(ot int, pt float64) bool {
		sp := spec
		sp.OT = ot
		return pt+sp.HT < sp.CenterT(0)
	}
	times := []float64{-5, 0, 3.25, 3.4, 4.1, 7, 7.000000000000001, 12.55, 1e6, -1e6}
	for ot := -3; ot < 40; ot++ { // every exact layer-centre boundary
		sp := spec
		sp.OT = ot
		times = append(times, sp.CenterT(0)-sp.HT, math.Nextafter(sp.CenterT(0)-sp.HT, -1))
	}
	for _, pt := range times {
		e := spec.ExpiryOT(pt)
		if !expired(e, pt) || expired(e-1, pt) {
			t.Fatalf("t=%v: expiry offset %d, predicate at %d: %v, at %d: %v", pt, e, e-1, expired(e-1, pt), e, expired(e, pt))
		}
	}
	for pt, want := range map[float64]int{
		math.NaN(): maxFrame + 1, math.Inf(1): maxFrame + 1, 1e300: maxFrame + 1,
		math.Inf(-1): -maxFrame, -1e300: -maxFrame,
	} {
		if got := spec.ExpiryOT(pt); got != want {
			t.Errorf("t=%v: expiry offset %d, want %d", pt, got, want)
		}
	}
}

// TestAdvanceLayers: the layers a window slides to cover a target, and no
// advance for a NaN, infinite or absurd target — including a layer index
// one past the frame bound, which a 32-bit int could not hold.
func TestAdvanceLayers(t *testing.T) {
	spec := mustSpec(t, Domain{GX: 20, GY: 16, GT: 10}, 1, 1, 3, 2) // last layer 9
	moved := spec
	moved.OT = 5
	for _, c := range []struct {
		name string
		sp   Spec
		t    float64
		want int
	}{
		{"covered", spec, 9.5, 0},
		{"behind", spec, -3, -12},
		{"one layer", spec, 10, 1},
		{"fractional", spec, 12.7, 3},
		{"moved frame", moved, 15, 1},
		{"NaN", spec, math.NaN(), 0},
		{"+Inf", spec, math.Inf(1), 0},
		{"-Inf", spec, math.Inf(-1), 0},
		{"+1e300", spec, 1e300, 0},
		{"-1e300", spec, -1e300, 0},
		{"one layer inside the bound", spec, float64(maxFrame - 1), maxFrame - 1 - 9},
		{"at the bound", spec, float64(maxFrame), 0},
		{"one layer inside the negative bound", spec, -float64(maxFrame - 1), -(maxFrame - 1) - 9},
		{"at the negative bound", spec, -float64(maxFrame), 0},
	} {
		if got := c.sp.AdvanceLayers(c.t); got != c.want {
			t.Errorf("%s: AdvanceLayers(%v) = %d, want %d", c.name, c.t, got, c.want)
		}
	}
}

// NewGrid and NewRing write no voxel: the allocator's zero guarantee is the
// estimate's init phase. Memory a released grid or ring gave back must
// therefore come back zeroed when the same specs are allocated again, for a
// small-object size class and a large span alike, and a fresh ring's
// snapshot must read zero.
func TestRecycledAllocationsAreZero(t *testing.T) {
	for _, d := range []Domain{{GX: 8, GY: 6, GT: 10}, {GX: 64, GY: 48, GT: 40}} {
		s := mustSpec(t, d, 1, 1, 2, 2)
		for round := 0; round < 3; round++ {
			g, err := NewGrid(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRing(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			for name, data := range map[string][]float64{"grid": g.Data, "ring": r.Data} {
				for i, v := range data {
					if v != 0 {
						t.Fatalf("%v round %d: %s voxel %d reads %g, want 0", d, round, name, i, v)
					}
				}
			}
			snap, err := r.Snapshot(nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range snap.Data {
				if v != 0 {
					t.Fatalf("%v round %d: snapshot voxel %d reads %g, want 0", d, round, i, v)
				}
			}
			for i := range g.Data {
				g.Data[i] = float64(i) + 1
			}
			for i := range r.Data {
				r.Data[i] = -float64(i) - 1
			}
			snap.Release()
			g.Release()
			r.Release()
			runtime.GC()
		}
	}
}
