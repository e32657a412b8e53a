package grid

import (
	"testing"
	"testing/quick"
)

// Intersects reports whether b and o share at least one voxel.
func (b Box) Intersects(o Box) bool {
	return !b.Clip(o).Empty()
}

// Contains reports whether voxel (X, Y, T) lies in the box.
func (b Box) Contains(X, Y, T int) bool {
	return X >= b.X0 && X <= b.X1 && Y >= b.Y0 && Y <= b.Y1 && T >= b.T0 && T <= b.T1
}

func TestBoxBasics(t *testing.T) {
	b := Box{X0: 1, X1: 3, Y0: 0, Y1: 0, T0: 2, T1: 5}
	if b.Empty() {
		t.Fatal("non-empty box reported empty")
	}
	if got := b.Count(); got != 3*1*4 {
		t.Errorf("Count = %d, want 12", got)
	}
	nx, ny, nt := b.Dims()
	if nx != 3 || ny != 1 || nt != 4 {
		t.Errorf("Dims = (%d,%d,%d), want (3,1,4)", nx, ny, nt)
	}
	if !b.Contains(2, 0, 5) || b.Contains(2, 1, 5) || b.Contains(0, 0, 3) {
		t.Error("Contains wrong")
	}

	empty := Box{X0: 2, X1: 1}
	if !empty.Empty() || empty.Count() != 0 {
		t.Error("empty box misreported")
	}
	nx, ny, nt = empty.Dims()
	if nx != 0 || ny != 0 || nt != 0 {
		t.Error("empty box dims should be zero")
	}
}

func TestBoxClipExpandUnion(t *testing.T) {
	a := Box{X0: 0, X1: 10, Y0: 0, Y1: 10, T0: 0, T1: 10}
	b := Box{X0: 5, X1: 15, Y0: -3, Y1: 4, T0: 8, T1: 20}
	c := a.Clip(b)
	want := Box{X0: 5, X1: 10, Y0: 0, Y1: 4, T0: 8, T1: 10}
	if c != want {
		t.Errorf("Clip = %+v, want %+v", c, want)
	}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("Intersects should be true")
	}
	far := Box{X0: 100, X1: 110, Y0: 0, Y1: 10, T0: 0, T1: 10}
	if a.Intersects(far) {
		t.Error("Intersects should be false for disjoint boxes")
	}
	e := want.Expand(2, 3)
	if e.X0 != 3 || e.X1 != 12 || e.Y0 != -2 || e.Y1 != 6 || e.T0 != 5 || e.T1 != 13 {
		t.Errorf("Expand = %+v", e)
	}
}

type qbox struct {
	B Box
}

// Generate keeps coordinates small so random boxes frequently intersect.
func genBox(v int64) Box {
	f := func(shift uint) int { return int((v >> shift) & 7) }
	return Box{
		X0: f(0), X1: f(0) + f(3) - 2,
		Y0: f(6), Y1: f(6) + f(9) - 2,
		T0: f(12), T1: f(12) + f(15) - 2,
	}
}

// TestBoxClipProperties checks the algebra properties the algorithms rely
// on: clip is the set intersection (membership-wise), commutative, and
// contained in both operands.
func TestBoxClipProperties(t *testing.T) {
	check := func(va, vb int64, x, y, tt uint8) bool {
		a, b := genBox(va), genBox(vb)
		c := a.Clip(b)
		if c != b.Clip(a) {
			return false
		}
		X, Y, T := int(x%12)-2, int(y%12)-2, int(tt%12)-2
		inBoth := a.Contains(X, Y, T) && b.Contains(X, Y, T)
		if inBoth != c.Contains(X, Y, T) {
			return false
		}
		if a.Intersects(b) != (c.Count() > 0) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestBoxCountMatchesEnumeration cross-checks Count against brute-force
// membership counting.
func TestBoxCountMatchesEnumeration(t *testing.T) {
	check := func(v int64) bool {
		b := genBox(v)
		n := 0
		for X := -3; X < 16; X++ {
			for Y := -3; Y < 16; Y++ {
				for T := -3; T < 16; T++ {
					if b.Contains(X, Y, T) {
						n++
					}
				}
			}
		}
		return n == b.Count()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
