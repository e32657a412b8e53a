package data

import (
	"math"

	"repro/internal/grid"
)

// Generator produces a deterministic synthetic event set inside a domain.
type Generator interface {
	// Name identifies the generator in catalogs and output, and is the
	// name ByName finds it by; no other code spells it.
	Name() string
	// Generate returns exactly n points inside d, derived from seed.
	Generate(n int, d grid.Domain, seed uint64) []grid.Point
}

// reflect folds v into [lo, hi) by reflection at the boundaries, keeping
// cluster shapes intact near domain edges.
func reflect(v, lo, hi float64) float64 {
	span := hi - lo
	if span <= 0 {
		return lo
	}
	// Map into a 2*span sawtooth and mirror the upper half.
	t := math.Mod(v-lo, 2*span)
	if t < 0 {
		t += 2 * span
	}
	if t >= span {
		t = 2*span - t
	}
	r := lo + t
	if r >= hi { // guard the open upper bound against rounding
		r = math.Nextafter(hi, lo)
	}
	return r
}

// Epidemic mimics the Dengue dataset: an urban disease outbreak with many
// tight street-level clusters and two seasonal waves. It produces the
// strongly clustered spatial distribution that makes coarse domain
// decompositions load-imbalanced in the paper's Dengue experiments.
type Epidemic struct {
	// Clusters is the number of neighborhood clusters (default 25).
	Clusters int
	// Waves is the number of seasonal outbreak waves (default 2).
	Waves int
}

// Name implements Generator.
func (e Epidemic) Name() string { return "epidemic" }

// Generate implements Generator.
func (e Epidemic) Generate(n int, d grid.Domain, seed uint64) []grid.Point {
	nc := e.Clusters
	if nc <= 0 {
		nc = 25
	}
	nw := e.Waves
	if nw <= 0 {
		nw = 2
	}
	r := NewRNG(seed ^ 0xDE46)
	type cluster struct{ cx, cy, sx, sy float64 }
	cs := make([]cluster, nc)
	w := make([]float64, nc)
	for i := range cs {
		cs[i] = cluster{
			cx: d.X0 + d.GX*(0.1+0.8*r.Float64()),
			cy: d.Y0 + d.GY*(0.1+0.8*r.Float64()),
			sx: d.GX * (0.005 + 0.02*r.Float64()),
			sy: d.GY * (0.005 + 0.02*r.Float64()),
		}
		u := r.Float64()
		w[i] = u * u // heavy-tailed cluster sizes
	}
	type wave struct{ ct, st float64 }
	ws := make([]wave, nw)
	ww := make([]float64, nw)
	for i := range ws {
		ws[i] = wave{
			ct: d.T0 + d.GT*(0.15+0.7*float64(i)+0.1*r.Float64())/float64(nw),
			st: d.GT * (0.04 + 0.06*r.Float64()),
		}
		ww[i] = 0.4 + r.Float64()
	}
	cumC, cumW := cumulative(w), cumulative(ww)

	pts := make([]grid.Point, n)
	for i := range pts {
		c := cs[r.pick(cumC)]
		wv := ws[r.pick(cumW)]
		pts[i] = grid.Point{
			X: reflect(c.cx+r.Norm()*c.sx, d.X0, d.X0+d.GX),
			Y: reflect(c.cy+r.Norm()*c.sy, d.Y0, d.Y0+d.GY),
			T: reflect(wv.ct+r.Norm()*wv.st, d.T0, d.T0+d.GT),
		}
	}
	return pts
}

// SocialMedia mimics the PollenUS dataset: geolocated tweets concentrated
// in population centers with Zipf-like weights, a diffuse background (the
// "random location in the approximated region" points), and a single broad
// seasonal ramp (the spring pollen season).
type SocialMedia struct {
	// Centers is the number of population centers (default 60).
	Centers int
	// Background is the fraction of uniformly scattered points
	// (default 0.12).
	Background float64
}

// Name implements Generator.
func (s SocialMedia) Name() string { return "socialmedia" }

// Generate implements Generator.
func (s SocialMedia) Generate(n int, d grid.Domain, seed uint64) []grid.Point {
	nc := s.Centers
	if nc <= 0 {
		nc = 60
	}
	bg := s.Background
	if bg <= 0 {
		bg = 0.12
	}
	r := NewRNG(seed ^ 0x50111E)
	type center struct{ cx, cy, s float64 }
	cs := make([]center, nc)
	w := make([]float64, nc)
	for i := range cs {
		cs[i] = center{
			cx: d.X0 + d.GX*r.Float64(),
			cy: d.Y0 + d.GY*r.Float64(),
			s:  math.Min(d.GX, d.GY) * (0.004 + 0.025*r.Float64()),
		}
		w[i] = 1 / math.Pow(float64(i+1), 0.8) // Zipf-ish city sizes
	}
	cum := cumulative(w)
	seasonCenter := d.T0 + 0.55*d.GT
	seasonWidth := 0.22 * d.GT

	pts := make([]grid.Point, n)
	for i := range pts {
		var x, y float64
		if r.Float64() < bg {
			x = d.X0 + d.GX*r.Float64()
			y = d.Y0 + d.GY*r.Float64()
		} else {
			c := cs[r.pick(cum)]
			x = reflect(c.cx+r.Norm()*c.s, d.X0, d.X0+d.GX)
			y = reflect(c.cy+r.Norm()*c.s, d.Y0, d.Y0+d.GY)
		}
		pts[i] = grid.Point{
			X: x, Y: y,
			T: reflect(seasonCenter+r.Norm()*seasonWidth, d.T0, d.T0+d.GT),
		}
	}
	return pts
}

// SparseGlobal mimics the Flu dataset: a small number of observations
// scattered along a handful of migratory flyways across a near-global
// domain spanning many years. Its key property is extreme sparsity: the
// grid is huge relative to the point count, so memory initialization
// dominates the runtime (Figure 7).
type SparseGlobal struct {
	// Flyways is the number of migratory corridors (default 7).
	Flyways int
	// Years is the number of annual seasons across the time span
	// (default 15).
	Years int
}

// Name implements Generator.
func (s SparseGlobal) Name() string { return "sparseglobal" }

// Generate implements Generator.
func (s SparseGlobal) Generate(n int, d grid.Domain, seed uint64) []grid.Point {
	nf := s.Flyways
	if nf <= 0 {
		nf = 7
	}
	years := s.Years
	if years <= 0 {
		years = 15
	}
	r := NewRNG(seed ^ 0xF1DB)
	// A flyway is a quadratic arc from a breeding site to a wintering site;
	// observations scatter around positions along the arc.
	type flyway struct{ x0, y0, x1, y1, bend, s float64 }
	fs := make([]flyway, nf)
	w := make([]float64, nf)
	for i := range fs {
		fs[i] = flyway{
			x0: d.X0 + d.GX*r.Float64(), y0: d.Y0 + d.GY*(0.5+0.5*r.Float64()),
			x1: d.X0 + d.GX*r.Float64(), y1: d.Y0 + d.GY*0.5*r.Float64(),
			bend: (r.Float64() - 0.5) * 0.4,
			s:    math.Min(d.GX, d.GY) * (0.01 + 0.03*r.Float64()),
		}
		w[i] = 0.3 + r.Float64()
	}
	cum := cumulative(w)
	yearLen := d.GT / float64(years)

	pts := make([]grid.Point, n)
	for i := range pts {
		f := fs[r.pick(cum)]
		u := r.Float64() // position along the arc
		mx := f.x0 + (f.x1-f.x0)*u + f.bend*d.GX*u*(1-u)
		my := f.y0 + (f.y1-f.y0)*u
		year := float64(r.IntN(years))
		// Spring and autumn migration peaks within the year.
		season := 0.3
		if r.Float64() < 0.5 {
			season = 0.75
		}
		t := d.T0 + (year+reflect(season+0.06*r.Norm(), 0, 1))*yearLen
		pts[i] = grid.Point{
			X: reflect(mx+r.Norm()*f.s, d.X0, d.X0+d.GX),
			Y: reflect(my+r.Norm()*f.s, d.Y0, d.Y0+d.GY),
			T: reflect(t, d.T0, d.T0+d.GT),
		}
	}
	return pts
}

// Hotspot mimics the eBird dataset: an enormous number of observations
// concentrated at birding hotspots with a power-law popularity
// distribution, plus a diffuse background, nearly uniform in time. Its key
// property is compute density: many points per voxel, so the kernel
// computation dominates and replication-based strategies shine.
type Hotspot struct {
	// Hotspots is the number of popular observation sites (default 200).
	Hotspots int
	// Background is the fraction of uniformly scattered points
	// (default 0.05).
	Background float64
}

// Name implements Generator.
func (h Hotspot) Name() string { return "hotspot" }

// Generate implements Generator.
func (h Hotspot) Generate(n int, d grid.Domain, seed uint64) []grid.Point {
	nh := h.Hotspots
	if nh <= 0 {
		nh = 200
	}
	bg := h.Background
	if bg <= 0 {
		bg = 0.05
	}
	r := NewRNG(seed ^ 0xEB12D)
	type spot struct{ cx, cy, s float64 }
	ss := make([]spot, nh)
	w := make([]float64, nh)
	for i := range ss {
		ss[i] = spot{
			cx: d.X0 + d.GX*r.Float64(),
			cy: d.Y0 + d.GY*r.Float64(),
			s:  math.Min(d.GX, d.GY) * (0.002 + 0.008*r.Float64()),
		}
		w[i] = math.Pow(float64(i+1), -0.7) // power-law popularity
	}
	cum := cumulative(w)

	pts := make([]grid.Point, n)
	for i := range pts {
		var x, y float64
		if r.Float64() < bg {
			x = d.X0 + d.GX*r.Float64()
			y = d.Y0 + d.GY*r.Float64()
		} else {
			sp := ss[r.pick(cum)]
			x = reflect(sp.cx+r.Norm()*sp.s, d.X0, d.X0+d.GX)
			y = reflect(sp.cy+r.Norm()*sp.s, d.Y0, d.Y0+d.GY)
		}
		// Mild weekly periodicity on top of a uniform spread.
		t := d.T0 + d.GT*r.Float64()
		if r.Float64() < 0.3 {
			week := d.GT / 52
			if week > 0 {
				t = d.T0 + math.Floor((t-d.T0)/week)*week + week*reflect(0.85+0.1*r.Norm(), 0, 1)
				t = reflect(t, d.T0, d.T0+d.GT)
			}
		}
		pts[i] = grid.Point{X: x, Y: y, T: t}
	}
	return pts
}

// Uniform scatters points uniformly over the domain; useful as a neutral
// baseline in tests and ablations.
type Uniform struct{}

// Name implements Generator.
func (Uniform) Name() string { return "uniform" }

// Generate implements Generator.
func (Uniform) Generate(n int, d grid.Domain, seed uint64) []grid.Point {
	r := NewRNG(seed ^ 0x07F0)
	pts := make([]grid.Point, n)
	for i := range pts {
		pts[i] = grid.Point{
			X: d.X0 + d.GX*r.Float64(),
			Y: d.Y0 + d.GY*r.Float64(),
			T: d.T0 + d.GT*r.Float64(),
		}
	}
	return pts
}

// generators are the generators ByName finds. A generator's name lives in
// its Name method alone.
var generators = []Generator{Epidemic{}, SocialMedia{}, SparseGlobal{}, Hotspot{}, Uniform{}}

// ByName returns a generator by its Name, or nil if unknown.
func ByName(name string) Generator {
	for _, g := range generators {
		if g.Name() == name {
			return g
		}
	}
	return nil
}
