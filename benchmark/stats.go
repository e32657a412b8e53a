package main

import (
	"math"
	"sort"
)

// sample is a set of measurements of one quantity (seconds, unless a
// caller says otherwise). The helpers never mutate the receiver.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile by linear interpolation between order
// statistics (the "inclusive" method: q=0 is the minimum, q=1 the
// maximum). An empty sample yields NaN so a missing measurement can never
// pass for a fast one.
func (s sample) quantile(q float64) float64 {
	v := s.sorted()
	if len(v) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s sample) median() float64 { return s.quantile(0.5) }

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method, which
// the driver judges this benchmark's steadiness with): cut point i of 4
// sits at position i·(len+1)/4 among the sorted values, counted from one,
// clamped to the sample and interpolated linearly.
func (s sample) quartiles() (q1, q3 float64) {
	v := s.sorted()
	if len(v) < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		m := len(v) + 1
		j := min(max(i*m/4, 1), len(v)-1)
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median —
// the run-to-run noise figure every bound in BENCHMARK.json is compared
// with.
func (s sample) spread() float64 {
	m := s.median()
	q1, q3 := s.quartiles()
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(m)
}

// tail returns the p-th percentile (p in (0,100)) as an order statistic,
// and how many samples lie strictly beyond it. A tail percentile is only
// trustworthy with enough samples past it; supported reports whether at
// least minBeyond are.
const minBeyond = 10

func (s sample) tail(p float64) (value float64, beyond int) {
	v := s.sorted()
	if len(v) == 0 {
		return math.NaN(), 0
	}
	// Nearest-rank: the smallest value with at least p% of the sample at
	// or below it.
	rank := int(math.Ceil(p / 100 * float64(len(v))))
	if rank < 1 {
		rank = 1
	}
	return v[rank-1], len(v) - rank
}

// highestSupported returns the highest of the usual percentiles (99.9,
// 99, 95, 90) that still has minBeyond samples past it, or 50 when the
// sample is too small for any tail at all.
func (s sample) highestSupported() float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if _, beyond := s.tail(p); beyond >= minBeyond {
			return p
		}
	}
	return 50
}

func (s sample) scaled(f float64) sample {
	out := make(sample, len(s))
	for i, v := range s {
		out[i] = v * f
	}
	return out
}

// closeRel reports whether a and b agree to within tol relative to the
// larger magnitude — the repo's ≤1e-9 exactness contract. Two exact zeros
// agree; a NaN never does.
func closeRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}
