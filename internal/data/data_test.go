package data

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

var testDomain = grid.Domain{X0: -10, Y0: 5, T0: 100, GX: 200, GY: 150, GT: 365}

func allGenerators() []Generator {
	return []Generator{Epidemic{}, SocialMedia{}, SparseGlobal{}, Hotspot{}, Uniform{}}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, g := range allGenerators() {
		a := g.Generate(500, testDomain, 42)
		b := g.Generate(500, testDomain, 42)
		if len(a) != 500 || len(b) != 500 {
			t.Fatalf("%s: wrong count", g.Name())
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s not deterministic at %d: %v vs %v", g.Name(), i, a[i], b[i])
			}
		}
		c := g.Generate(500, testDomain, 43)
		same := 0
		for i := range a {
			if a[i] == c[i] {
				same++
			}
		}
		if same == 500 {
			t.Errorf("%s ignores the seed", g.Name())
		}
	}
}

func TestGeneratorsStayInDomain(t *testing.T) {
	check := func(nRaw uint16, seed uint64) bool {
		n := int(nRaw%2000) + 1
		for _, g := range allGenerators() {
			for _, p := range g.Generate(n, testDomain, seed) {
				if !testDomain.Contains(p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// spreadOf measures the mean squared distance from the centroid,
// normalized by the domain diagonal: a clustering metric.
func spreadOf(pts []grid.Point, d grid.Domain) float64 {
	var cx, cy float64
	for _, p := range pts {
		cx += p.X
		cy += p.Y
	}
	cx /= float64(len(pts))
	cy /= float64(len(pts))
	var s float64
	for _, p := range pts {
		s += (p.X-cx)*(p.X-cx) + (p.Y-cy)*(p.Y-cy)
	}
	return s / float64(len(pts)) / (d.GX*d.GX + d.GY*d.GY)
}

// TestClusteredGeneratorsAreClustered: the whole point of the synthetic
// datasets is their clustering structure (it drives load imbalance in the
// experiments), so verify the epidemic/hotspot sets are much tighter than
// uniform scatter.
func TestClusteredGeneratorsAreClustered(t *testing.T) {
	const n = 4000
	uni := spreadOf(Uniform{}.Generate(n, testDomain, 9), testDomain)
	// Maximum density share: fraction of points in the densest 1% of cells.
	densestShare := func(pts []grid.Point) float64 {
		const cells = 40
		counts := map[int]int{}
		for _, p := range pts {
			cx := int((p.X - testDomain.X0) / testDomain.GX * cells)
			cy := int((p.Y - testDomain.Y0) / testDomain.GY * cells)
			if cx >= cells {
				cx = cells - 1
			}
			if cy >= cells {
				cy = cells - 1
			}
			counts[cx*cells+cy]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		return float64(best) / float64(len(pts))
	}
	uniShare := densestShare(Uniform{}.Generate(n, testDomain, 9))
	for _, g := range []Generator{Epidemic{}, Hotspot{}} {
		pts := g.Generate(n, testDomain, 9)
		if share := densestShare(pts); share < 4*uniShare {
			t.Errorf("%s densest-cell share %.4f not clearly above uniform %.4f",
				g.Name(), share, uniShare)
		}
	}
	// Epidemic concentrates strongly compared to uniform spread.
	if epi := spreadOf(Epidemic{}.Generate(n, testDomain, 9), testDomain); epi > uni {
		t.Errorf("epidemic spread %.4f not below uniform %.4f", epi, uni)
	}
}

// TestSocialMediaSeasonal: the pollen season ramp concentrates events in
// the middle of the time span.
func TestSocialMediaSeasonal(t *testing.T) {
	pts := SocialMedia{}.Generate(5000, testDomain, 3)
	mid, tails := 0, 0
	for _, p := range pts {
		frac := (p.T - testDomain.T0) / testDomain.GT
		if frac > 0.3 && frac < 0.8 {
			mid++
		} else {
			tails++
		}
	}
	if mid < 2*tails {
		t.Errorf("seasonal concentration weak: mid=%d tails=%d", mid, tails)
	}
}

func TestByNameGenerators(t *testing.T) {
	for _, g := range allGenerators() {
		got := ByName(g.Name())
		if got == nil || got.Name() != g.Name() {
			t.Errorf("ByName(%q) failed", g.Name())
		}
	}
	if ByName("nope") != nil {
		t.Error("unknown generator should return nil")
	}
}

func TestRNG(t *testing.T) {
	r := NewRNG(7)
	var sum, sum2 float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean %.4f", mean)
	}
	variance := sum2/n - mean*mean
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance %.4f, want ~0.0833", variance)
	}

	sum, sum2 = 0, 0
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sum2 += v * v
	}
	if m := sum / n; math.Abs(m) > 0.02 {
		t.Errorf("normal mean %.4f", m)
	}
	if sd := math.Sqrt(sum2 / n); math.Abs(sd-1) > 0.02 {
		t.Errorf("normal sd %.4f", sd)
	}

	for i := 0; i < 1000; i++ {
		if v := r.IntN(10); v < 0 || v >= 10 {
			t.Fatalf("IntN out of range: %d", v)
		}
	}
	if r.IntN(0) != 0 || r.IntN(-5) != 0 {
		t.Error("IntN of non-positive should be 0")
	}
}

func TestRNGPick(t *testing.T) {
	r := NewRNG(11)
	cum := cumulative([]float64{1, 0, 3})
	counts := [3]int{}
	for i := 0; i < 40000; i++ {
		counts[r.pick(cum)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("pick ratio %.2f, want ~3", ratio)
	}
}

func TestReflect(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-3, 0, 10, 3},
		{13, 0, 10, 7},
		{23, 0, 10, 3},
		{0, 0, 10, 0},
	}
	for _, c := range cases {
		if got := reflect(c.v, c.lo, c.hi); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("reflect(%g) = %g, want %g", c.v, got, c.want)
		}
	}
	// Reflection always lands inside [lo, hi).
	check := func(v float64) bool {
		got := reflect(v, -2, 7)
		return got >= -2 && got < 7
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
