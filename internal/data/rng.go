// Package data provides deterministic synthetic event generators that stand
// in for the four proprietary datasets of the paper's evaluation (Dengue,
// PollenUS, Flu, eBird), plus the full 21-instance catalog of Table 2 with
// proportional scaling so the whole experiment suite runs on modest
// hardware.
//
// The real datasets cannot be redistributed (patient privacy, Gnip licensing,
// eBird terms), so each generator reproduces the statistical *shape* that
// drives the paper's parallel behaviour: spatial clustering (load imbalance
// for domain decomposition), temporal seasonality, and the points-per-voxel
// density that decides whether a run is initialization- or compute-bound.
package data

import "math"

// RNG is a small deterministic SplitMix64 random number generator. It is
// used instead of math/rand so generated datasets are reproducible
// byte-for-byte across Go versions.
type RNG struct {
	state uint64
	spare float64
	hasSp bool
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// IntN returns a uniform integer in [0, n).
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal variate (Box-Muller, caching the spare).
func (r *RNG) Norm() float64 {
	if r.hasSp {
		r.hasSp = false
		return r.spare
	}
	var u float64
	for u == 0 {
		u = r.Float64()
	}
	v := r.Float64()
	m := math.Sqrt(-2 * math.Log(u))
	r.spare = m * math.Sin(2*math.Pi*v)
	r.hasSp = true
	return m * math.Cos(2*math.Pi*v)
}

// pick returns an index sampled proportionally to the (non-negative)
// cumulative weights cum, whose last entry is the total weight.
func (r *RNG) pick(cum []float64) int {
	x := r.Float64() * cum[len(cum)-1]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func cumulative(w []float64) []float64 {
	cum := make([]float64, len(w))
	s := 0.0
	for i, x := range w {
		s += x
		cum[i] = s
	}
	return cum
}
