package grid

import (
	"testing"
	"testing/quick"
)

func decompSpec(t *testing.T, gx, gy, gt, hs, ht int) Spec {
	t.Helper()
	return mustSpec(t, Domain{GX: float64(gx), GY: float64(gy), GT: float64(gt)},
		1, 1, float64(hs), float64(ht))
}

// TestDecompPartition is the fundamental property: the subdomain boxes
// tile the grid exactly, and CellOf agrees with the boxes.
func TestDecompPartition(t *testing.T) {
	check := func(gx, gy, gt, a, b, c uint8) bool {
		s := decompSpec(t, int(gx%17)+1, int(gy%13)+1, int(gt%11)+1, 1, 1)
		d := NewDecomp(s, int(a%9)+1, int(b%9)+1, int(c%9)+1)
		seen := make([]int, s.Voxels())
		for id := 0; id < d.Cells(); id++ {
			box := d.BoxID(id)
			if box.Empty() {
				return false // clamping must make every cell nonempty
			}
			for X := box.X0; X <= box.X1; X++ {
				for Y := box.Y0; Y <= box.Y1; Y++ {
					for T := box.T0; T <= box.T1; T++ {
						seen[(X*s.Gy+Y)*s.Gt+T]++
						ca, cb, cc := d.CellOf(X, Y, T)
						if d.ID(ca, cb, cc) != id {
							return false
						}
					}
				}
			}
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDecompIDRoundTrip(t *testing.T) {
	s := decompSpec(t, 20, 20, 20, 1, 1)
	d := NewDecomp(s, 3, 4, 5)
	for a := 0; a < d.A; a++ {
		for b := 0; b < d.B; b++ {
			for c := 0; c < d.C; c++ {
				ga, gb, gc := d.Coords(d.ID(a, b, c))
				if ga != a || gb != b || gc != c {
					t.Fatalf("Coords(ID(%d,%d,%d)) = (%d,%d,%d)", a, b, c, ga, gb, gc)
				}
			}
		}
	}
}

func TestDecompClampsToGrid(t *testing.T) {
	s := decompSpec(t, 4, 4, 4, 1, 1)
	d := NewDecomp(s, 100, 100, 100)
	if d.A != 4 || d.B != 4 || d.C != 4 {
		t.Errorf("decomp not clamped: %dx%dx%d", d.A, d.B, d.C)
	}
	d = NewDecomp(s, 0, -1, 1)
	if d.A != 1 || d.B != 1 || d.C != 1 {
		t.Errorf("decomp not raised to 1: %dx%dx%d", d.A, d.B, d.C)
	}
}

// TestAdjustForPD verifies the PD safety requirement: after adjustment
// every subdomain spans at least 2*Hs+1 voxels spatially and 2*Ht+1
// temporally whenever more than one subdomain exists along an axis.
func TestAdjustForPD(t *testing.T) {
	check := func(gx, gy, gt, hs, ht, a, b, c uint8) bool {
		s := decompSpec(t, int(gx%60)+1, int(gy%60)+1, int(gt%60)+1,
			int(hs%6)+1, int(ht%6)+1)
		d := NewDecomp(s, int(a%70)+1, int(b%70)+1, int(c%70)+1).AdjustForPD()
		nx, ny, nt := d.MinDims()
		if d.A > 1 && nx < 2*s.Hs+1 {
			return false
		}
		if d.B > 1 && ny < 2*s.Hs+1 {
			return false
		}
		if d.C > 1 && nt < 2*s.Ht+1 {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPDSafetyDisjointInfluence is the race-freedom theorem of Section 5.1:
// after AdjustForPD, any two points in distinct subdomains that agree in
// parity on every axis have disjoint influence boxes.
func TestPDSafetyDisjointInfluence(t *testing.T) {
	check := func(gx, gy, gt, hs, ht uint8, seed int64) bool {
		s := decompSpec(t, int(gx%50)+8, int(gy%50)+8, int(gt%50)+8,
			int(hs%4)+1, int(ht%4)+1)
		d := NewDecomp(s, 64, 64, 64).AdjustForPD()
		// Pick two deterministic pseudo-random points.
		rnd := func(k int64, span float64) float64 {
			v := (seed*2654435761 + k*40503) % 10007
			if v < 0 {
				v = -v
			}
			return span * float64(v) / 10007
		}
		p1 := Point{X: rnd(1, s.Domain.GX), Y: rnd(2, s.Domain.GY), T: rnd(3, s.Domain.GT)}
		p2 := Point{X: rnd(4, s.Domain.GX), Y: rnd(5, s.Domain.GY), T: rnd(6, s.Domain.GT)}
		a1, b1, c1 := d.CellOf(s.VoxelOf(p1))
		a2, b2, c2 := d.CellOf(s.VoxelOf(p2))
		samePar := (a1%2 == a2%2) && (b1%2 == b2%2) && (c1%2 == c2%2)
		sameCell := a1 == a2 && b1 == b2 && c1 == c2
		if !samePar || sameCell {
			return true // not a conflicting pair
		}
		return !s.InfluenceBox(p1).Intersects(s.InfluenceBox(p2))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestCellRange verifies CellRange returns exactly the cells whose boxes
// intersect the query box.
func TestCellRange(t *testing.T) {
	s := decompSpec(t, 30, 24, 18, 2, 2)
	d := NewDecomp(s, 5, 4, 3)
	queries := []Box{
		{X0: 0, X1: 0, Y0: 0, Y1: 0, T0: 0, T1: 0},
		{X0: 3, X1: 17, Y0: 2, Y1: 9, T0: 5, T1: 12},
		{X0: 29, X1: 29, Y0: 23, Y1: 23, T0: 17, T1: 17},
		{X0: 0, X1: 29, Y0: 0, Y1: 23, T0: 0, T1: 17},
	}
	for _, q := range queries {
		a0, a1, b0, b1, c0, c1 := d.CellRange(q)
		for a := 0; a < d.A; a++ {
			for b := 0; b < d.B; b++ {
				for c := 0; c < d.C; c++ {
					inRange := a >= a0 && a <= a1 && b >= b0 && b <= b1 && c >= c0 && c <= c1
					intersects := d.Box(a, b, c).Intersects(q)
					if inRange != intersects {
						t.Errorf("query %+v cell (%d,%d,%d): inRange=%v intersects=%v",
							q, a, b, c, inRange, intersects)
					}
				}
			}
		}
	}
}

// MinDims returns the smallest subdomain extent along each axis, used to
// verify the PD safety requirement.
func (d Decomp) MinDims() (nx, ny, nt int) {
	nx, ny, nt = d.Spec.Gx, d.Spec.Gy, d.Spec.Gt
	for a := 0; a < d.A; a++ {
		if w := d.startX[a+1] - d.startX[a]; w < nx {
			nx = w
		}
	}
	for b := 0; b < d.B; b++ {
		if w := d.startY[b+1] - d.startY[b]; w < ny {
			ny = w
		}
	}
	for c := 0; c < d.C; c++ {
		if w := d.startT[c+1] - d.startT[c]; w < nt {
			nt = w
		}
	}
	return
}

// SafeForPD reports whether every subdomain satisfies the point
// decomposition safety requirement (at least 2*Hs+1 voxels spatially and
// 2*Ht+1 temporally), so that points in distinct same-parity subdomains
// have disjoint influence boxes.
func (d Decomp) SafeForPD() bool {
	nx, ny, nt := d.MinDims()
	return nx >= 2*d.Spec.Hs+1 && ny >= 2*d.Spec.Hs+1 && nt >= 2*d.Spec.Ht+1
}

func TestSafeForPD(t *testing.T) {
	s := decompSpec(t, 40, 40, 40, 3, 2)
	if !NewDecomp(s, 5, 5, 8).AdjustForPD().SafeForPD() {
		t.Error("adjusted decomposition should be safe")
	}
	// 40 voxels / (2*3+1) = 5 max subdomains spatially.
	if NewDecomp(s, 8, 1, 1).SafeForPD() {
		t.Error("8 subdomains of width 5 < 7 should be unsafe")
	}
}
