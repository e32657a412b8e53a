package grid

import "sort"

// Decomp partitions the voxel grid into an A x B x C lattice of rectangular
// subdomains, following the paper's convention: subdomain a along x covers
// voxels [floor(a*Gx/A), floor((a+1)*Gx/A) - 1].
//
// Two parallel strategies use decompositions:
//
//   - PB-SYM-DD assigns each point to every subdomain its influence box
//     intersects (cylinders are cut).
//   - PB-SYM-PD assigns each point to the single subdomain containing its
//     voxel and requires subdomains wider than twice the bandwidth so that
//     same-parity subdomains never conflict; use AdjustForPD to enforce it.
type Decomp struct {
	Spec    Spec
	A, B, C int

	startX, startY, startT []int // cumulative boundaries, length A+1 etc.
}

// NewDecomp builds an A x B x C decomposition of the spec's grid. Requested
// counts are clamped to [1, grid dimension] so every subdomain is nonempty.
func NewDecomp(s Spec, a, b, c int) Decomp {
	a = clamp(a, 1, s.Gx)
	b = clamp(b, 1, s.Gy)
	c = clamp(c, 1, s.Gt)
	return Decomp{
		Spec: s, A: a, B: b, C: c,
		startX: bounds(s.Gx, a),
		startY: bounds(s.Gy, b),
		startT: bounds(s.Gt, c),
	}
}

func bounds(g, parts int) []int {
	s := make([]int, parts+1)
	for i := 0; i <= parts; i++ {
		s[i] = i * g / parts
	}
	return s
}

// AdjustForPD shrinks the subdomain counts so every subdomain spans at
// least 2*Hs+1 voxels spatially and 2*Ht+1 voxels temporally, the safety
// requirement of point decomposition (Section 5.1). The paper applies the
// same adjustment ("decompositions of subdomain smaller than twice the
// bandwidths are adjusted", Fig. 11).
func (d Decomp) AdjustForPD() Decomp {
	s := d.Spec
	maxA := s.Gx / (2*s.Hs + 1)
	maxB := s.Gy / (2*s.Hs + 1)
	maxC := s.Gt / (2*s.Ht + 1)
	return NewDecomp(s, min(d.A, max(maxA, 1)), min(d.B, max(maxB, 1)), min(d.C, max(maxC, 1)))
}

// Cells returns the total number of subdomains A*B*C.
func (d Decomp) Cells() int { return d.A * d.B * d.C }

// ID returns the flat identifier of subdomain (a, b, c), with c innermost.
func (d Decomp) ID(a, b, c int) int { return (a*d.B+b)*d.C + c }

// Coords inverts ID.
func (d Decomp) Coords(id int) (a, b, c int) {
	c = id % d.C
	b = (id / d.C) % d.B
	a = id / (d.C * d.B)
	return
}

// Box returns the voxel box of subdomain (a, b, c).
func (d Decomp) Box(a, b, c int) Box {
	return Box{
		d.startX[a], d.startX[a+1] - 1,
		d.startY[b], d.startY[b+1] - 1,
		d.startT[c], d.startT[c+1] - 1,
	}
}

// BoxID returns the voxel box of the subdomain with flat identifier id.
func (d Decomp) BoxID(id int) Box {
	a, b, c := d.Coords(id)
	return d.Box(a, b, c)
}

// CellOf returns the lattice coordinates of the subdomain containing voxel
// (X, Y, T).
func (d Decomp) CellOf(X, Y, T int) (a, b, c int) {
	return locate(d.startX, X), locate(d.startY, Y), locate(d.startT, T)
}

// locate returns the largest i with starts[i] <= v < starts[i+1].
func locate(starts []int, v int) int {
	// sort.Search finds the first boundary strictly greater than v; the
	// subdomain index is one less.
	i := sort.Search(len(starts), func(i int) bool { return starts[i] > v }) - 1
	if i < 0 {
		return 0
	}
	if i >= len(starts)-1 {
		return len(starts) - 2
	}
	return i
}

// CellRange returns the inclusive lattice ranges of subdomains whose boxes
// intersect the voxel box b (assumed already clipped to the grid).
func (d Decomp) CellRange(b Box) (a0, a1, b0, b1, c0, c1 int) {
	a0, b0, c0 = d.CellOf(b.X0, b.Y0, b.T0)
	a1, b1, c1 = d.CellOf(b.X1, b.Y1, b.T1)
	return
}
