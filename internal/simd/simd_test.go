package simd

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
)

// The tests in this file pin the package contract: whatever ISA dispatch
// selects, every kernel is bitwise identical to its pure-Go reference loop,
// and no kernel touches a single element outside the slices it was handed.
// On an AVX2 host these exercise the assembly against the generics; under
// `-tags purego` (or non-amd64) dispatch and reference coincide and the
// tests pin the reference semantics themselves.

const sentinel = -123456.789

// eqBits reports bitwise equality, treating any two NaNs as equal: when two
// NaN operands meet in a multiply the hardware may propagate either payload
// and the scalar compiler's operand order is not specified.
func eqBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// guarded returns a slice of length n carved out of a larger sentinel-filled
// buffer, plus a check func that fails the test if any guard cell moved.
func guarded(t *testing.T, n int) ([]float64, func()) {
	t.Helper()
	const pad = 8
	buf := make([]float64, n+2*pad)
	for i := range buf {
		buf[i] = sentinel
	}
	return buf[pad : pad+n : pad+n], func() {
		t.Helper()
		for i := 0; i < pad; i++ {
			if buf[i] != sentinel {
				t.Fatalf("guard before slice clobbered at %d: %v", i, buf[i])
			}
			if buf[len(buf)-1-i] != sentinel {
				t.Fatalf("guard after slice clobbered at %d: %v", len(buf)-1-i, buf[len(buf)-1-i])
			}
		}
	}
}

func randFloats(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func TestActiveConsistent(t *testing.T) {
	switch Active() {
	case "avx2", "scalar":
	default:
		t.Fatalf("Active() = %q, want avx2 or scalar", Active())
	}
	if Enabled() != (Active() == "avx2") {
		t.Fatalf("Enabled() = %v inconsistent with Active() = %q", Enabled(), Active())
	}
}

// TestActiveMatchesRequired enforces the CI contract: when the runner
// exports STKDE_REQUIRE_ISA, the dispatcher must have picked exactly that
// ISA. Unset env skips, so non-amd64 and purego legs are unaffected.
func TestActiveMatchesRequired(t *testing.T) {
	want := os.Getenv("STKDE_REQUIRE_ISA")
	if want == "" {
		t.Skip("STKDE_REQUIRE_ISA not set")
	}
	if got := Active(); got != want {
		t.Fatalf("Active() = %q, but STKDE_REQUIRE_ISA=%q", got, want)
	}
}

// testLengths covers 0, every tail residue near the 4- and 8-wide block
// boundaries, and a few long spans.
var testLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17, 23, 31, 32, 33, 63, 64, 65, 67, 128, 129}

func TestAddMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range testLengths {
		src := randFloats(rng, n+5)
		dst, check := guarded(t, n)
		want := make([]float64, n)
		for i := range dst {
			dst[i] = rng.NormFloat64()
			want[i] = dst[i]
		}
		addGeneric(want, src[:n])
		Add(dst, src)
		check()
		for i := range dst {
			if !eqBits(dst[i], want[i]) {
				t.Fatalf("n=%d: dst[%d] = %x, want %x", n, i,
					math.Float64bits(dst[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestMulAddRowsMatchesGeneric covers every bar length the kernel's paths
// split on — the one-register path (1..4), the register-resident bar
// (5..16, every tail residue) and the per-row reload (17..20) — at one,
// two and seven rows, with rows packed (stride bn) and gapped (bn+3).
func TestMulAddRowsMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type shape struct{ rows, bn, stride int }
	var cases []shape
	for bn := 1; bn <= 20; bn++ {
		for _, rows := range []int{1, 2, 7} {
			for _, stride := range []int{bn, bn + 3} {
				cases = append(cases, shape{rows, bn, stride})
			}
		}
	}
	cases = append(cases, shape{1, 67, 67}, shape{7, 12, 31}, shape{5, 3, 7})
	for _, tc := range cases {
		need := (tc.rows-1)*tc.stride + tc.bn
		data, check := guarded(t, need)
		want := make([]float64, need)
		for i := range data {
			data[i] = rng.NormFloat64()
			want[i] = data[i]
		}
		ks := randFloats(rng, tc.rows)
		// The bar is guarded too: the kernel must leave it and the
		// memory around it untouched.
		bar, checkBar := guarded(t, tc.bn)
		copy(bar, randFloats(rng, tc.bn))
		mulAddRowsGeneric(want, tc.stride, ks, bar)
		MulAddRows(data, tc.stride, ks, bar)
		check()
		checkBar()
		for i := range data {
			if !eqBits(data[i], want[i]) {
				t.Fatalf("%+v: data[%d] = %x, want %x", tc, i,
					math.Float64bits(data[i]), math.Float64bits(want[i]))
			}
		}
		// The inter-row gap cells hold the generic result too (it never
		// touches them), so the full-slice comparison above already proves
		// the assembly left stride padding alone.
	}
}

func TestMulAddRowsPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("stride<bn", func() {
		MulAddRows(make([]float64, 16), 2, []float64{1, 2}, []float64{1, 2, 3})
	})
	mustPanic("data short", func() {
		MulAddRows(make([]float64, 5), 4, []float64{1, 2}, []float64{1, 2, 3})
	})
}

// diskInputs builds a w2 column whose r2 = uu + w2[i] values straddle the
// support boundary: in-disk, far out, exactly 1.0, just below, just above,
// and non-finite.
func diskInputs(rng *rand.Rand, n int, uu float64) []float64 {
	w2 := make([]float64, n)
	for i := range w2 {
		switch i % 7 {
		case 0:
			w2[i] = rng.Float64() * 0.9 // typically inside
		case 1:
			w2[i] = 1 - uu // r2 exactly 1.0: must be zeroed
		case 2:
			w2[i] = math.Nextafter(1-uu, 0) // just inside
		case 3:
			w2[i] = math.Nextafter(1-uu, 2) // just outside
		case 4:
			w2[i] = rng.Float64() * 40 // far outside
		case 5:
			w2[i] = math.Inf(1)
		default:
			w2[i] = math.NaN()
		}
	}
	return w2
}

func TestFillDiskPolyMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range testLengths {
		for deg := 0; deg <= 3; deg++ {
			for _, uu := range []float64{0, 0.25, 0.999, 1.5} {
				w2 := diskInputs(rng, n+2, uu)
				kc := 0.75 + rng.Float64()
				norm := rng.Float64() * 3
				dst, check := guarded(t, n)
				want := make([]float64, n)
				fillDiskPolyGeneric(want, w2[:n], uu, kc, norm, deg)
				FillDiskPoly(dst, w2, uu, kc, norm, deg)
				check()
				for i := range dst {
					if !eqBits(dst[i], want[i]) {
						t.Fatalf("n=%d deg=%d uu=%v: dst[%d] = %x (w2=%v), want %x", n, deg, uu, i,
							math.Float64bits(dst[i]), w2[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

func TestFillBarPolyMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range testLengths {
		for deg := 0; deg <= 3; deg++ {
			w := make([]float64, n+1)
			for i := range w {
				switch i % 8 {
				case 0:
					w[i] = rng.Float64()*2 - 1 // typically inside
				case 1:
					w[i] = 1 // boundary: zero
				case 2:
					w[i] = -1 // boundary: zero
				case 3:
					w[i] = math.Nextafter(1, 0)
				case 4:
					w[i] = math.Nextafter(-1, 0)
				case 5:
					w[i] = rng.NormFloat64() * 10
				case 6:
					w[i] = math.Inf(-1)
				default:
					w[i] = math.NaN()
				}
			}
			kc := 0.5 + rng.Float64()
			dst, check := guarded(t, n)
			want := make([]float64, n)
			fillBarPolyGeneric(want, w[:n], kc, deg)
			FillBarPoly(dst, w, kc, deg)
			check()
			for i := range dst {
				if !eqBits(dst[i], want[i]) {
					t.Fatalf("n=%d deg=%d: dst[%d] = %x (w=%v), want %x", n, deg, i,
						math.Float64bits(dst[i]), w[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

func TestFillPanicsOnBadDegree(t *testing.T) {
	for _, deg := range []int{-1, 4, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("FillDiskPoly deg=%d: expected panic", deg)
				}
			}()
			FillDiskPoly(make([]float64, 4), make([]float64, 4), 0, 1, 1, deg)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("FillBarPoly deg=%d: expected panic", deg)
				}
			}()
			FillBarPoly(make([]float64, 4), make([]float64, 4), 1, deg)
		}()
	}
}

func TestEmptyInputsAreNoOps(t *testing.T) {
	Add(nil, nil)
	MulAddRows(nil, 5, nil, nil)
	MulAddRows(nil, 0, []float64{1}, nil) // bn == 0: no rows to touch
	FillDiskPoly(nil, nil, 0, 1, 1, 2)
	FillBarPoly(nil, nil, 1, 2)
}

// BenchmarkMulAddRows times the PB-SYM row update at the bar lengths the
// register-resident path covers (one, two and three vectors plus a tail),
// with rows that stay in L1 and rows streamed from L2. Each call updates
// 32 rows 40 elements apart — a disk column on a grid with 40 time layers
// — and successive calls walk the buffer, so the L1 rows are a 32 KiB
// buffer revisited and the L2 rows a 1 MiB one. The figure is ns per
// updated element.
func BenchmarkMulAddRows(b *testing.B) {
	const rows, stride = 32, 40
	for _, res := range []struct {
		name  string
		bytes int
	}{{"L1", 32 << 10}, {"L2", 1 << 20}} {
		for _, bn := range []int{5, 9, 15} {
			b.Run(fmt.Sprintf("%s/bn%d", res.name, bn), func(b *testing.B) {
				rng := rand.New(rand.NewSource(6))
				data := make([]float64, res.bytes/8)
				ks := randFloats(rng, rows)
				bar := randFloats(rng, bn)
				span := (rows-1)*stride + bn
				calls := (len(data) - span) / (rows * stride)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MulAddRows(data[(i%calls)*rows*stride:], stride, ks, bar)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*bn), "ns/elem")
			})
		}
	}
}
