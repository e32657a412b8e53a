package codec

import (
	"math"
	"testing"

	"repro/internal/grid"
)

// TestCountRefusesHostileCounts: a count whose byte size wraps a 32-bit
// int (count × size = 2^32 + a few) must fail the reader, not pass a
// multiplied length check and drive an allocation. Run under GOARCH=386
// to exercise the wrap; on 64-bit targets the cases are plain overruns.
func TestCountRefusesHostileCounts(t *testing.T) {
	for _, c := range []struct {
		n          uint32
		size, left int
	}{
		{178956971, PointBytes, 8}, // × 24 = 2^32 + 8
		{0x80000000, 8, 0},         // × 8 = 2^34
		{0x08000001, 32, 32},       // × 32 = 2^32 + 32
	} {
		r := NewReader("test", make([]byte, c.left))
		if got := r.Count(c.n, c.size); got != 0 || r.Err() == nil {
			t.Errorf("Count(%d, %d) with %d bytes left = %d, %v; want 0 and an error", c.n, c.size, c.left, got, r.Err())
		}
	}
	r := NewReader("test", make([]byte, 8))
	if pts := r.Points(178956971); len(pts) != 0 || r.Err() == nil {
		t.Errorf("Points(178956971) over 8 bytes: %d points, %v", len(pts), r.Err())
	}
	r = NewReader("test", make([]byte, 24))
	if got := r.Count(2, 12); got != 2 || r.Err() != nil {
		t.Errorf("Count(2, 12) over 24 bytes = %d, %v; want 2", got, r.Err())
	}
}

// TestSpecBounds: the spec decoder's one range, at its edges.
func TestSpecBounds(t *testing.T) {
	base, err := grid.NewSpec(grid.Domain{GX: 4, GY: 3, GT: 2}, 1, 1, 2, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		edit func(*grid.Spec)
		ok   bool
	}{
		{func(s *grid.Spec) {}, true},
		{func(s *grid.Spec) { s.OT = -MaxDim }, true},
		{func(s *grid.Spec) { s.OT = -MaxDim - 1 }, false},
		{func(s *grid.Spec) { s.Gx = MaxDim }, true},
		{func(s *grid.Spec) { s.Gx = MaxDim + 1 }, false},
		{func(s *grid.Spec) { s.Gt = 0 }, false},
		{func(s *grid.Spec) { s.Ht = -1 }, false},
		{func(s *grid.Spec) { s.SRes = math.Inf(1) }, false},
		{func(s *grid.Spec) { s.HT = math.NaN() }, false},
	} {
		s := base
		c.edit(&s)
		w := NewWriter(SpecBytes)
		w.Spec(s)
		r := NewReader("test", w.B)
		got := r.Spec()
		err := r.Done()
		if c.ok && (err != nil || got != s) {
			t.Errorf("%+v: decoded %+v, %v", s, got, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%+v decoded without error", s)
		}
	}
}
