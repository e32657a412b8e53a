package kernel

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func allSpatial() []Spatial {
	return []Spatial{
		Epanechnikov2D{}, Quartic2D{}, Triweight2D{}, Uniform2D{}, Cone2D{},
		NewTruncGauss2D(1.0 / 3),
	}
}

func allTemporal() []Temporal {
	return []Temporal{
		Epanechnikov1D{}, Quartic1D{}, Triweight1D{}, Uniform1D{}, Triangle1D{},
		NewTruncGauss1D(1.0 / 3),
	}
}

// TestSpatialNormalization numerically integrates every spatial kernel over
// the unit disk; a proper density kernel must integrate to 1.
func TestSpatialNormalization(t *testing.T) {
	const n = 800
	h := 2.0 / n
	for _, k := range allSpatial() {
		sum := 0.0
		for i := 0; i < n; i++ {
			u := -1 + (float64(i)+0.5)*h
			for j := 0; j < n; j++ {
				v := -1 + (float64(j)+0.5)*h
				sum += k.Eval(u, v)
			}
		}
		sum *= h * h
		if math.Abs(sum-1) > 5e-3 {
			t.Errorf("%s integrates to %.5f, want 1", k.Name(), sum)
		}
	}
}

// TestTemporalNormalization numerically integrates every temporal kernel
// over [-1, 1].
func TestTemporalNormalization(t *testing.T) {
	const n = 200000
	h := 2.0 / n
	for _, k := range allTemporal() {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += k.Eval(-1 + (float64(i)+0.5)*h)
		}
		sum *= h
		if math.Abs(sum-1) > 1e-4 {
			t.Errorf("%s integrates to %.6f, want 1", k.Name(), sum)
		}
	}
}

// TestCompactSupport: every kernel must vanish outside its support; the
// point-based algorithms rely on this to visit only the bandwidth cylinder.
func TestCompactSupport(t *testing.T) {
	check := func(a, b uint16) bool {
		// Random direction scaled to radius >= 1.
		ang := 2 * math.Pi * float64(a) / 65536
		r := 1 + 3*float64(b)/65536
		u, v := r*math.Cos(ang), r*math.Sin(ang)
		if u*u+v*v >= 1 { // r=1 can round just inside the support
			for _, k := range allSpatial() {
				if k.Eval(u, v) != 0 {
					return false
				}
			}
		}
		for _, k := range allTemporal() {
			if k.Eval(r) != 0 || k.Eval(-r) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestNonNegativeAndSymmetric: kernels are densities (non-negative) and
// radially/axially symmetric, the property PB-SYM exploits.
func TestNonNegativeAndSymmetric(t *testing.T) {
	check := func(a, b uint16) bool {
		u := -1 + 2*float64(a)/65536
		v := -1 + 2*float64(b)/65536
		for _, k := range allSpatial() {
			e := k.Eval(u, v)
			if e < 0 || math.IsNaN(e) {
				return false
			}
			if e != k.Eval(-u, v) || e != k.Eval(u, -v) || e != k.Eval(v, u) {
				return false
			}
		}
		for _, k := range allTemporal() {
			e := k.Eval(u)
			if e < 0 || math.IsNaN(e) || e != k.Eval(-u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPaperKernelValues pins the default kernels to the paper's formulas.
func TestPaperKernelValues(t *testing.T) {
	ks := Epanechnikov2D{}
	kt := Epanechnikov1D{}
	if got, want := ks.Eval(0, 0), 2/math.Pi; math.Abs(got-want) > 1e-15 {
		t.Errorf("ks(0,0) = %g, want %g", got, want)
	}
	if got, want := ks.Eval(0.5, 0.5), (2/math.Pi)*0.5; math.Abs(got-want) > 1e-15 {
		t.Errorf("ks(.5,.5) = %g, want %g", got, want)
	}
	if got, want := kt.Eval(0), 0.75; got != want {
		t.Errorf("kt(0) = %g, want %g", got, want)
	}
	if got, want := kt.Eval(0.5), 0.75*0.75; math.Abs(got-want) > 1e-15 {
		t.Errorf("kt(.5) = %g, want %g", got, want)
	}
}

// TestDecayMonotonic: density weight decreases with distance for the decay
// kernels.
func TestDecayMonotonic(t *testing.T) {
	for _, k := range []Spatial{Epanechnikov2D{}, Quartic2D{}, Triweight2D{}, Cone2D{}, NewTruncGauss2D(1.0 / 3)} {
		prev := math.Inf(1)
		for r := 0.0; r < 1.0; r += 0.01 {
			e := k.Eval(r, 0)
			if e > prev+1e-12 {
				t.Errorf("%s not monotonic at r=%.2f", k.Name(), r)
				break
			}
			prev = e
		}
	}
}

// polyEval reproduces the fast-path evaluation contract: the left-associated
// product c*d*d*...*d with d = 1-x (x = r^2 or w^2), zero outside support.
func polyEval(c float64, deg int, x float64) float64 {
	if x >= 1 {
		return 0
	}
	d := 1 - x
	switch deg {
	case 0:
		return c
	case 1:
		return c * d
	case 2:
		return c * d * d
	default:
		return c * d * d * d
	}
}

// TestPolySpecializationBitwise: for every kernel advertising the PolySpatial
// or PolyTemporal hook, the polynomial form must be bitwise identical to
// Eval — the property the devirtualized fill loops rely on.
func TestPolySpecializationBitwise(t *testing.T) {
	check := func(a, b uint16) bool {
		u := -1.5 + 3*float64(a)/65536
		v := -1.5 + 3*float64(b)/65536
		for _, k := range allSpatial() {
			c, deg, ok := SpecializeSpatial(k)
			if !ok {
				continue
			}
			if got, want := polyEval(c, deg, u*u+v*v), k.Eval(u, v); got != want {
				t.Logf("%s: poly(%g,%g)=%g Eval=%g", k.Name(), u, v, got, want)
				return false
			}
		}
		for _, k := range allTemporal() {
			c, deg, ok := SpecializeTemporal(k)
			if !ok {
				continue
			}
			if got, want := polyEval(c, deg, u*u), k.Eval(u); got != want {
				t.Logf("%s: poly(%g)=%g Eval=%g", k.Name(), u, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// TestSpecializeCoverage pins which kernels opt into the fast path: the four
// polynomial families do, the non-polynomial kernels do not.
func TestSpecializeCoverage(t *testing.T) {
	wantSpatial := map[string]int{
		"uniform2d": 0, "epanechnikov2d": 1, "quartic2d": 2, "triweight2d": 3,
	}
	for _, k := range allSpatial() {
		_, deg, ok := SpecializeSpatial(k)
		wdeg, want := wantSpatial[k.Name()]
		if ok != want || (ok && deg != wdeg) {
			t.Errorf("SpecializeSpatial(%s) = (deg=%d, ok=%t), want (deg=%d, ok=%t)",
				k.Name(), deg, ok, wdeg, want)
		}
	}
	wantTemporal := map[string]int{
		"uniform1d": 0, "epanechnikov1d": 1, "quartic1d": 2, "triweight1d": 3,
	}
	for _, k := range allTemporal() {
		_, deg, ok := SpecializeTemporal(k)
		wdeg, want := wantTemporal[k.Name()]
		if ok != want || (ok && deg != wdeg) {
			t.Errorf("SpecializeTemporal(%s) = (deg=%d, ok=%t), want (deg=%d, ok=%t)",
				k.Name(), deg, ok, wdeg, want)
		}
	}
}

func TestByNameRoundTrip(t *testing.T) {
	for _, k := range allSpatial() {
		got := SpatialByName(k.Name())
		if got == nil || got.Name() != k.Name() || reflect.TypeOf(got) != reflect.TypeOf(k) {
			t.Errorf("SpatialByName(%q) = %T, want %T", k.Name(), got, k)
		}
	}
	for _, k := range allTemporal() {
		got := TemporalByName(k.Name())
		if got == nil || got.Name() != k.Name() || reflect.TypeOf(got) != reflect.TypeOf(k) {
			t.Errorf("TemporalByName(%q) = %T, want %T", k.Name(), got, k)
		}
	}
	if SpatialByName("nope") != nil || TemporalByName("nope") != nil {
		t.Error("unknown names should return nil")
	}
	if SpatialByName("").Name() != DefaultSpatial().Name() {
		t.Error("empty name should return the default spatial kernel")
	}
	if TemporalByName("").Name() != DefaultTemporal().Name() {
		t.Error("empty name should return the default temporal kernel")
	}
}

// polyUser2D is a user-supplied spatial kernel that opts into the PolySpatial
// hook with an arbitrary (possibly unsupported) degree, standing in for
// third-party kernels outside this package.
type polyUser2D struct {
	c   float64
	deg int
}

func (k polyUser2D) Eval(u, v float64) float64 {
	r2 := u*u + v*v
	if r2 >= 1 {
		return 0
	}
	d, acc := 1-r2, k.c
	for i := 0; i < k.deg; i++ {
		acc *= d
	}
	return acc
}
func (k polyUser2D) Name() string                { return "polyuser2d" }
func (k polyUser2D) SpatialPoly() (float64, int) { return k.c, k.deg }

// polyUser1D is the temporal analogue of polyUser2D.
type polyUser1D struct {
	c   float64
	deg int
}

func (k polyUser1D) Eval(w float64) float64 {
	if w <= -1 || w >= 1 {
		return 0
	}
	d, acc := 1-w*w, k.c
	for i := 0; i < k.deg; i++ {
		acc *= d
	}
	return acc
}
func (k polyUser1D) Name() string                 { return "polyuser1d" }
func (k polyUser1D) TemporalPoly() (float64, int) { return k.c, k.deg }

// TestSpecializeUserKernels: user-defined kernels that implement the Poly
// hooks specialize exactly when their degree is one the fill engines (scalar
// and vector alike) actually compile; out-of-range degrees must fall back to
// interface dispatch rather than silently computing the wrong polynomial.
func TestSpecializeUserKernels(t *testing.T) {
	for _, deg := range []int{0, 1, 2, 3} {
		c, d, ok := SpecializeSpatial(polyUser2D{c: 1.25, deg: deg})
		if !ok || c != 1.25 || d != deg {
			t.Errorf("SpecializeSpatial(user deg %d) = (%g, %d, %t), want (1.25, %d, true)",
				deg, c, d, ok, deg)
		}
		c, d, ok = SpecializeTemporal(polyUser1D{c: 0.625, deg: deg})
		if !ok || c != 0.625 || d != deg {
			t.Errorf("SpecializeTemporal(user deg %d) = (%g, %d, %t), want (0.625, %d, true)",
				deg, c, d, ok, deg)
		}
	}
	for _, deg := range []int{-1, 4, 7, 100} {
		if c, d, ok := SpecializeSpatial(polyUser2D{c: 2, deg: deg}); ok || c != 0 || d != 0 {
			t.Errorf("SpecializeSpatial(user deg %d) = (%g, %d, %t), want (0, 0, false)",
				deg, c, d, ok)
		}
		if c, d, ok := SpecializeTemporal(polyUser1D{c: 2, deg: deg}); ok || c != 0 || d != 0 {
			t.Errorf("SpecializeTemporal(user deg %d) = (%g, %d, %t), want (0, 0, false)",
				deg, c, d, ok)
		}
	}
	// Kernels without the hook never specialize, whatever their shape.
	if _, _, ok := SpecializeSpatial(Cone2D{}); ok {
		t.Error("SpecializeSpatial(Cone2D) specialized without a hook")
	}
	if _, _, ok := SpecializeTemporal(Triangle1D{}); ok {
		t.Error("SpecializeTemporal(Triangle1D) specialized without a hook")
	}
}

// TestUnsupportedDegreeEndToEnd: an unsupported-degree user kernel is still
// usable — Eval is consulted through the interface and produces a sane
// density shape (this is the fallback the estimators take when ok=false).
func TestUnsupportedDegreeEndToEnd(t *testing.T) {
	ks := polyUser2D{c: 5 / math.Pi, deg: 4}
	if v := ks.Eval(0, 0); v != 5/math.Pi {
		t.Errorf("deg-4 user kernel Eval(0,0) = %g, want %g", v, 5/math.Pi)
	}
	if v := ks.Eval(1, 0); v != 0 {
		t.Errorf("deg-4 user kernel Eval(1,0) = %g, want 0", v)
	}
	kt := polyUser1D{c: 315.0 / 256, deg: 4}
	if v := kt.Eval(0); v != 315.0/256 {
		t.Errorf("deg-4 user kernel Eval(0) = %g, want %g", v, 315.0/256)
	}
	if v := kt.Eval(-1); v != 0 {
		t.Errorf("deg-4 user kernel Eval(-1) = %g, want 0", v)
	}
}
