package simd

import (
	"encoding/binary"
	"math"
	"testing"
)

// Fuzz targets diff each dispatched kernel against its pure-Go reference on
// arbitrary lengths, offsets and bit patterns — including NaN, ±Inf,
// subnormals and negative zero, which the raw-byte decoding below produces
// naturally. On hosts where dispatch resolves to the generics the targets
// degenerate to self-comparison, which is the intended skip-not-fail
// behavior for purego and non-amd64 legs.

// floatsFromBytes decodes b into float64s, capped at max elements.
func floatsFromBytes(b []byte, max int) []float64 {
	n := len(b) / 8
	if n > max {
		n = max
	}
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return s
}

// seedBytes encodes n distinct, non-trivial float64s (seed corpus entries
// whose products and sums are not all zero).
func seedBytes(n int) []byte {
	b := make([]byte, 8*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(0.1+float64(i)*1.37))
	}
	return b
}

func fuzzEq(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !eqBits(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %x, want %x", name, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func FuzzAdd(f *testing.F) {
	f.Add(make([]byte, 8*17))
	f.Fuzz(func(t *testing.T, raw []byte) {
		vals := floatsFromBytes(raw, 512)
		n := len(vals) / 2
		dst := append([]float64(nil), vals[:n]...)
		want := append([]float64(nil), vals[:n]...)
		src := vals[n : 2*n]
		addGeneric(want, src)
		Add(dst, src)
		fuzzEq(t, "Add", dst, want)
	})
}

func FuzzMulAddRows(f *testing.F) {
	f.Add(make([]byte, 8*40), uint8(3), uint8(5), uint8(2))
	f.Add(make([]byte, 8*10), uint8(4), uint8(4), uint8(0))
	// The register-resident bar's shapes: one vector plus a tail (5), two
	// plus a tail (9), three plus a tail (15), four full vectors (16), and
	// the first length past it, which reloads the bar per row (17).
	for _, bn := range []uint8{5, 9, 15, 16, 17} {
		f.Add(seedBytes(4*(int(bn)+3)+4+int(bn)), uint8(3), bn-1, uint8(3))
	}
	f.Fuzz(func(t *testing.T, raw []byte, rowsB, bnB, gapB uint8) {
		rows := int(rowsB%16) + 1
		bn := int(bnB%24) + 1
		stride := bn + int(gapB%8)
		need := (rows-1)*stride + bn
		vals := floatsFromBytes(raw, need+rows+bn)
		if len(vals) < need+rows+bn {
			return // not enough input material for this shape
		}
		data := append([]float64(nil), vals[:need]...)
		want := append([]float64(nil), vals[:need]...)
		ks := vals[need : need+rows]
		bar := vals[need+rows : need+rows+bn]
		mulAddRowsGeneric(want, stride, ks, bar)
		MulAddRows(data, stride, ks, bar)
		fuzzEq(t, "MulAddRows", data, want)
	})
}

func FuzzFillDiskPoly(f *testing.F) {
	f.Add(make([]byte, 8*9), 0.25, 1.5, 0.75, uint8(2))
	f.Add(make([]byte, 8*4), math.Inf(1), 1.0, 1.0, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, uu, kc, norm float64, degB uint8) {
		deg := int(degB % 4)
		w2 := floatsFromBytes(raw, 512)
		dst := make([]float64, len(w2))
		want := make([]float64, len(w2))
		fillDiskPolyGeneric(want, w2, uu, kc, norm, deg)
		FillDiskPoly(dst, w2, uu, kc, norm, deg)
		fuzzEq(t, "FillDiskPoly", dst, want)
	})
}

func FuzzFillBarPoly(f *testing.F) {
	f.Add(make([]byte, 8*7), 2.0, uint8(1))
	f.Add(make([]byte, 8*3), math.NaN(), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, kc float64, degB uint8) {
		deg := int(degB % 4)
		w := floatsFromBytes(raw, 512)
		dst := make([]float64, len(w))
		want := make([]float64, len(w))
		fillBarPolyGeneric(want, w, kc, deg)
		FillBarPoly(dst, w, kc, deg)
		fuzzEq(t, "FillBarPoly", dst, want)
	})
}
