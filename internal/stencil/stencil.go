// Package stencil models the subdomain conflict structure of point-based
// parallel STKDE as a 27-point stencil graph, and provides the graph
// machinery of Section 5: greedy coloring under pluggable vertex orders,
// checkerboard (parity) coloring, orientation of the stencil graph into a
// dependency DAG, and weighted critical-path analysis.
//
// Vertices are the A x B x C subdomains of a grid.Decomp; two vertices are
// adjacent when their lattice coordinates differ by at most 1 on every axis
// (Chebyshev distance 1), because only neighboring subdomains can hold
// points with overlapping bandwidth cylinders.
package stencil

import "sort"

// Lattice is an A x B x C lattice of subdomains with implicit 27-point
// stencil adjacency.
type Lattice struct {
	A, B, C int
}

// N returns the number of vertices.
func (l Lattice) N() int { return l.A * l.B * l.C }

// ID maps lattice coordinates to a vertex identifier (c innermost, matching
// grid.Decomp.ID).
func (l Lattice) ID(a, b, c int) int { return (a*l.B+b)*l.C + c }

// Coords inverts ID.
func (l Lattice) Coords(id int) (a, b, c int) {
	c = id % l.C
	b = (id / l.C) % l.B
	a = id / (l.C * l.B)
	return
}

// Neighbors calls yield for every vertex adjacent to id (up to 26).
func (l Lattice) Neighbors(id int, yield func(nb int)) {
	a, b, c := l.Coords(id)
	for da := -1; da <= 1; da++ {
		na := a + da
		if na < 0 || na >= l.A {
			continue
		}
		for db := -1; db <= 1; db++ {
			nb := b + db
			if nb < 0 || nb >= l.B {
				continue
			}
			for dc := -1; dc <= 1; dc++ {
				nc := c + dc
				if nc < 0 || nc >= l.C {
					continue
				}
				if da == 0 && db == 0 && dc == 0 {
					continue
				}
				yield(l.ID(na, nb, nc))
			}
		}
	}
}

// Coloring assigns a color to every vertex such that adjacent vertices get
// distinct colors. Vertices of one color can be processed concurrently.
type Coloring struct {
	Colors    []int
	NumColors int
}

// Checkerboard returns the 8-color parity coloring used by the first
// PB-SYM-PD implementation: vertex (a, b, c) gets color
// 4*(a mod 2) + 2*(b mod 2) + (c mod 2). The paper implements this as 8
// consecutive OpenMP parallel-for constructs.
func Checkerboard(l Lattice) Coloring {
	colors := make([]int, l.N())
	maxc := 0
	for v := range colors {
		a, b, c := l.Coords(v)
		col := 4*(a&1) + 2*(b&1) + (c & 1)
		colors[v] = col
		if col > maxc {
			maxc = col
		}
	}
	return Coloring{Colors: colors, NumColors: maxc + 1}
}

// Greedy colors the lattice greedily in the given vertex order: each vertex
// receives the smallest color not used by an already-colored neighbor.
// With the natural order this matches classic greedy coloring; with a
// non-increasing load order it is the load-aware coloring of
// PB-SYM-PD-SCHED (Section 5.2).
func Greedy(l Lattice, order []int) Coloring {
	const uncolored = -1
	colors := make([]int, l.N())
	for i := range colors {
		colors[i] = uncolored
	}
	// A vertex has at most 26 neighbors, so 27 colors always suffice.
	var used [27]bool
	maxc := 0
	for _, v := range order {
		for i := range used {
			used[i] = false
		}
		l.Neighbors(v, func(nb int) {
			if c := colors[nb]; c != uncolored {
				used[c] = true
			}
		})
		c := 0
		for used[c] {
			c++
		}
		colors[v] = c
		if c > maxc {
			maxc = c
		}
	}
	return Coloring{Colors: colors, NumColors: maxc + 1}
}

// NaturalOrder returns the identity permutation of n vertices.
func NaturalOrder(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}

// ByLoadDesc returns a permutation of the vertices in non-increasing load
// order, the ordering PB-SYM-PD-SCHED feeds to the greedy coloring so the
// most loaded subdomains receive the smallest colors and are scheduled
// first. Ties break on vertex id for determinism.
func ByLoadDesc(load []float64) []int {
	o := NaturalOrder(len(load))
	sort.SliceStable(o, func(i, j int) bool {
		if load[o[i]] != load[o[j]] {
			return load[o[i]] > load[o[j]]
		}
		return o[i] < o[j]
	})
	return o
}
