package core

import (
	"math"
	"testing"

	"repro/internal/grid"
)

// TestQueryMatchesGrid: point queries at voxel centers must equal the
// grid-based estimate exactly (same formula, same distance tests).
func TestQueryMatchesGrid(t *testing.T) {
	spec := testSpec(t, 18, 14, 10, 3, 2.5)
	pts := testPoints(250, spec.Domain, 5)
	ref, err := Estimate(AlgVB, pts, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(pts, spec, Options{})
	for X := 0; X < spec.Gx; X++ {
		for Y := 0; Y < spec.Gy; Y++ {
			for T := 0; T < spec.Gt; T++ {
				got := q.At(spec.CenterX(X), spec.CenterY(Y), spec.CenterT(T))
				want := ref.Grid.At(X, Y, T)
				if math.Abs(got-want) > 1e-13 {
					t.Fatalf("query(%d,%d,%d) = %g, grid = %g", X, Y, T, got, want)
				}
			}
		}
	}
}

// TestQueryBytes: QueryBytes sizes the index NewQuery builds — one slice
// header per bandwidth block it allocates and one int32 id per event.
func TestQueryBytes(t *testing.T) {
	for _, spec := range []grid.Spec{
		testSpec(t, 18, 14, 10, 3, 2.5),
		testSpec(t, 10, 10, 10, 20, 20), // one block
	} {
		pts := testPoints(250, spec.Domain, 5)
		q := NewQuery(pts, spec, Options{})
		ids := 0
		for _, b := range q.bins {
			ids += len(b)
		}
		if got, want := QueryBytes(spec, len(pts)), int64(len(q.bins))*24+int64(ids)*4; got != want {
			t.Errorf("HS %g HT %g: QueryBytes = %d, index holds %d blocks and %d ids (%d bytes)", spec.HS, spec.HT, got, len(q.bins), ids, want)
		}
	}
}

func TestQueryEmptyAndOutside(t *testing.T) {
	spec := testSpec(t, 10, 10, 10, 2, 2)
	q := NewQuery(nil, spec, Options{})
	if q.At(5, 5, 5) != 0 {
		t.Error("empty index must return 0")
	}
	pts := []grid.Point{{X: 5, Y: 5, T: 5}}
	q = NewQuery(pts, spec, Options{})
	// Far outside the indexed blocks: no panic, zero density.
	if v := q.At(-100, 300, 800); v != 0 {
		t.Errorf("far query = %g, want 0", v)
	}
	// At the event location itself: maximal density.
	center := q.At(5, 5, 5)
	off := q.At(6.5, 5, 5)
	if center <= off {
		t.Errorf("density should decay with distance: %g vs %g", center, off)
	}
}

// TestQueryKernelOption: queries honor custom kernels.
func TestQueryKernelOption(t *testing.T) {
	spec := testSpec(t, 10, 10, 10, 3, 3)
	pts := []grid.Point{{X: 5, Y: 5, T: 5}}
	def := NewQuery(pts, spec, Options{})
	uni := NewQuery(pts, spec, Options{
		Spatial:  kernelUniform2D{},
		Temporal: kernelUniform1D{},
	})
	// Uniform kernel: flat within the cylinder.
	a := uni.At(5.1, 5, 5)
	b := uni.At(6.9, 5, 5)
	if math.Abs(a-b) > 1e-15 {
		t.Errorf("uniform kernel should be flat: %g vs %g", a, b)
	}
	// Epanechnikov: decaying.
	if def.At(5.1, 5, 5) <= def.At(6.9, 5, 5) {
		t.Error("default kernel should decay")
	}
}

// local uniform kernels to avoid an import cycle with the kernel package's
// test helpers.
type kernelUniform2D struct{}

func (kernelUniform2D) Eval(u, v float64) float64 {
	if u*u+v*v >= 1 {
		return 0
	}
	return 1 / math.Pi
}
func (kernelUniform2D) Name() string { return "test-uniform2d" }

type kernelUniform1D struct{}

func (kernelUniform1D) Eval(w float64) float64 {
	if w <= -1 || w >= 1 {
		return 0
	}
	return 0.5
}
func (kernelUniform1D) Name() string { return "test-uniform1d" }

// TestQueryOutOfDomainEvents: events beyond the spec domain land in the
// edge bins at build time, so queries at (or near) their true locations
// must find them — the situation of a stream's live events after window
// advances outrun the creation domain. A naive unclamped bin lookup would
// scan nothing and report zero.
func TestQueryOutOfDomainEvents(t *testing.T) {
	spec := testSpec(t, 30, 30, 90, 5, 7) // domain GT=90, ht=7
	pts := []grid.Point{{X: 10, Y: 10, T: 100}}
	q := NewQuery(pts, spec, Options{})
	opt := Options{}.withDefaults()
	want := opt.Spatial.Eval(0, 0) * opt.Temporal.Eval(0) * spec.NormFactor(1)
	if got := q.At(10, 10, 100); math.Abs(got-want) > 1e-15 {
		t.Fatalf("At(event location beyond domain) = %g, want %g", got, want)
	}
	// Within bandwidth of the out-of-domain event: nonzero.
	if got := q.At(12, 10, 103); got <= 0 {
		t.Fatalf("At(near out-of-domain event) = %g, want > 0", got)
	}
	// Beyond bandwidth in every direction: exactly zero.
	for _, loc := range []grid.Point{{X: 10, Y: 10, T: 120}, {X: 40, Y: 10, T: 100}, {X: 10, Y: 10, T: -50}} {
		if got := q.At(loc.X, loc.Y, loc.T); got != 0 {
			t.Fatalf("At(%v) = %g, want 0", loc, got)
		}
	}
	// An in-domain query set still agrees with the direct O(n) sum.
	mixed := append(testPoints(100, spec.Domain, 3), pts...)
	q = NewQuery(mixed, spec, Options{})
	for _, loc := range []grid.Point{{X: 10, Y: 10, T: 95}, {X: 15, Y: 12, T: 88}, {X: 10, Y: 10, T: 100}} {
		var want float64
		for _, p := range mixed {
			dx, dy, dt := p.X-loc.X, p.Y-loc.Y, p.T-loc.T
			if dx*dx+dy*dy < spec.HS*spec.HS && dt >= -spec.HT && dt <= spec.HT {
				want += opt.Spatial.Eval(dx/spec.HS, dy/spec.HS) * opt.Temporal.Eval(dt/spec.HT)
			}
		}
		want *= spec.NormFactor(len(mixed))
		if got := q.At(loc.X, loc.Y, loc.T); math.Abs(got-want) > 1e-13 {
			t.Fatalf("At(%v) = %g, direct sum = %g", loc, got, want)
		}
	}
}
