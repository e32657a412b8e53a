package stencil

import (
	"testing"
	"testing/quick"
)

// Degree returns the number of neighbors of id.
func (l Lattice) Degree(id int) int {
	n := 0
	l.Neighbors(id, func(int) { n++ })
	return n
}

// Valid reports whether the coloring is proper on the lattice.
func (c Coloring) Valid(l Lattice) bool {
	if len(c.Colors) != l.N() {
		return false
	}
	ok := true
	for v := 0; v < l.N(); v++ {
		l.Neighbors(v, func(nb int) {
			if c.Colors[nb] == c.Colors[v] {
				ok = false
			}
		})
	}
	return ok
}

// ClassSizes returns the number of vertices of each color.
func (c Coloring) ClassSizes() []int {
	s := make([]int, c.NumColors)
	for _, col := range c.Colors {
		s[col]++
	}
	return s
}

func TestLatticeIDRoundTrip(t *testing.T) {
	l := Lattice{A: 3, B: 4, C: 5}
	for a := 0; a < l.A; a++ {
		for b := 0; b < l.B; b++ {
			for c := 0; c < l.C; c++ {
				ga, gb, gc := l.Coords(l.ID(a, b, c))
				if ga != a || gb != b || gc != c {
					t.Fatalf("round trip failed for (%d,%d,%d)", a, b, c)
				}
			}
		}
	}
}

func TestNeighborsChebyshev(t *testing.T) {
	l := Lattice{A: 4, B: 4, C: 4}
	for v := 0; v < l.N(); v++ {
		va, vb, vc := l.Coords(v)
		seen := map[int]bool{}
		l.Neighbors(v, func(nb int) {
			if seen[nb] {
				t.Fatalf("neighbor %d yielded twice for %d", nb, v)
			}
			seen[nb] = true
			na, nbb, nc := l.Coords(nb)
			da, db, dc := abs(na-va), abs(nbb-vb), abs(nc-vc)
			if da > 1 || db > 1 || dc > 1 || (da == 0 && db == 0 && dc == 0) {
				t.Fatalf("vertex %d has invalid neighbor %d", v, nb)
			}
		})
		// Brute-force count.
		want := 0
		for u := 0; u < l.N(); u++ {
			if u == v {
				continue
			}
			ua, ub, uc := l.Coords(u)
			if abs(ua-va) <= 1 && abs(ub-vb) <= 1 && abs(uc-vc) <= 1 {
				want++
			}
		}
		if len(seen) != want || l.Degree(v) != want {
			t.Fatalf("vertex %d: %d neighbors, want %d", v, len(seen), want)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestCheckerboardProper(t *testing.T) {
	check := func(a, b, c uint8) bool {
		l := Lattice{A: int(a%6) + 1, B: int(b%6) + 1, C: int(c%6) + 1}
		col := Checkerboard(l)
		return col.Valid(l) && col.NumColors <= 8
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerboardUses8ColorsWhenLarge(t *testing.T) {
	col := Checkerboard(Lattice{A: 4, B: 4, C: 4})
	if col.NumColors != 8 {
		t.Errorf("NumColors = %d, want 8", col.NumColors)
	}
	sizes := col.ClassSizes()
	for c, s := range sizes {
		if s != 8 {
			t.Errorf("color %d has %d vertices, want 8", c, s)
		}
	}
}

func TestGreedyProperAnyOrder(t *testing.T) {
	check := func(a, b, c uint8, seed int64) bool {
		l := Lattice{A: int(a%5) + 1, B: int(b%5) + 1, C: int(c%5) + 1}
		// Pseudo-random permutation from the seed.
		order := NaturalOrder(l.N())
		rng := seed
		for i := len(order) - 1; i > 0; i-- {
			rng = rng*6364136223846793005 + 1442695040888963407
			j := int((rng >> 33) % int64(i+1))
			if j < 0 {
				j = -j
			}
			order[i], order[j] = order[j], order[i]
		}
		col := Greedy(l, order)
		return col.Valid(l) && col.NumColors <= 27
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyColorsAllVertices(t *testing.T) {
	l := Lattice{A: 3, B: 3, C: 3}
	col := Greedy(l, NaturalOrder(l.N()))
	for v, c := range col.Colors {
		if c < 0 || c >= col.NumColors {
			t.Fatalf("vertex %d has color %d outside [0,%d)", v, c, col.NumColors)
		}
	}
}

func TestByLoadDesc(t *testing.T) {
	load := []float64{3, 9, 1, 9, 5}
	order := ByLoadDesc(load)
	want := []int{1, 3, 4, 0, 2} // ties break on vertex id
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestLoadAwareGreedyGivesHeavySmallColors(t *testing.T) {
	// The heaviest vertex must receive color 0 under load-aware ordering.
	l := Lattice{A: 4, B: 4, C: 4}
	load := make([]float64, l.N())
	for i := range load {
		load[i] = float64(i % 7)
	}
	load[37] = 1000
	col := Greedy(l, ByLoadDesc(load))
	if col.Colors[37] != 0 {
		t.Errorf("heaviest vertex got color %d, want 0", col.Colors[37])
	}
	if !col.Valid(l) {
		t.Error("coloring invalid")
	}
}
