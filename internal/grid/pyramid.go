package grid

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/par"
)

// blockShift is the log2 edge of a pyramid block: blocks are 8x8x8 voxels,
// small enough that a false-positive block scan is cheap and large enough
// that the block tables are ~0.2% of the grid.
const (
	blockShift = 3
	blockEdge  = 1 << blockShift
)

// blocksFor returns the number of blockEdge-sized blocks covering n voxels.
func blocksFor(n int) int { return (n + blockEdge - 1) >> blockShift }

// Pyramid is the analytics sketch of a static density grid:
//
//   - a 3-D summed-volume table (inclusive prefix sums over X, Y and T,
//     with one zero-padded boundary plane per axis) answering BoxMass with
//     an 8-corner lookup in O(1) instead of an O(box) triple loop;
//   - coarse 8x8x8 block maxima pruning TopK to the blocks that can
//     still contribute, instead of scanning all O(G) voxels;
//   - the blocks sorted once, at build, by maximum descending: TopK walks
//     that order and stops at the first block below its floor, so a call
//     costs O(k + touched blocks), with no per-call pass over every block.
//
// The pyramid references the grid it was built from (TopK re-reads exact
// voxel values inside surviving blocks), so the grid must
// stay immutable and alive while the pyramid is used — the contract cached
// serving grids already obey. Build cost is one parallel O(G) pass; the
// tables can be charged to a Budget at build (see NewPyramid).
//
// Answers agree with the naive Grid scans to within accumulation rounding
// (the property tests assert ≤1e-9); TopK re-reads exact voxel values, so
// its selection matches the sequential scan exactly.
type Pyramid struct {
	g *Grid

	// svt holds inclusive prefix sums with one layer of zero padding:
	// svt[(X*(Gy+1)+Y)*(Gt+1)+T] = sum of g over [0,X) x [0,Y) x [0,T).
	svt []float64

	bx, by, bt int       // block grid dimensions
	blockMax   []float64 // per-block voxel maximum, T-block innermost
	// order lists every block index by (maximum descending, index
	// ascending): TopK's best-first visit order. Read-only after build,
	// so concurrent TopK calls share it.
	order []int32
}

// PyramidBytes returns the memory footprint of a pyramid for the spec,
// before building one (the serving tier sizes evictions with it).
func PyramidBytes(s Spec) int64 {
	svt := int64(s.Gx+1) * int64(s.Gy+1) * int64(s.Gt+1)
	blocks := int64(blocksFor(s.Gx)) * int64(blocksFor(s.Gy)) * int64(blocksFor(s.Gt))
	return (svt+blocks)*8 + blocks*4 // float64 tables, int32 order
}

// NewPyramid builds the analytics sketch of g with up to p workers (p < 1
// means GOMAXPROCS), charging the budget if one is provided. The charge is
// the caller's to return, with b.Free(py.Bytes()), once no reader uses the
// pyramid any more.
func NewPyramid(g *Grid, p int, b *Budget) (*Pyramid, error) {
	s := g.Spec
	bytes := PyramidBytes(s)
	if err := b.Alloc(bytes); err != nil {
		return nil, err
	}
	py := &Pyramid{
		g:   g,
		svt: make([]float64, (s.Gx+1)*(s.Gy+1)*(s.Gt+1)),
		bx:  blocksFor(s.Gx), by: blocksFor(s.Gy), bt: blocksFor(s.Gt),
	}
	py.blockMax = make([]float64, py.bx*py.by*py.bt)
	py.order = make([]int32, len(py.blockMax))
	py.build(p)
	return py, nil
}

// build fills the summed-volume table in three axis passes, then the block
// maxima and their visit order. Each pass partitions work so that every
// output cell is summed by exactly one worker in ascending axis order,
// making the table (and hence every BoxMass answer) independent of the
// worker count.
func (py *Pyramid) build(p int) {
	s := py.g.Spec
	ny, nt := s.Gy+1, s.Gt+1

	// Pass 1: cumulative sums along T, one grid row into one padded row.
	par.BlocksMin(p, s.Gx*s.Gy, 1+minAnalysisBlock/s.Gt, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			X, Y := r/s.Gy, r%s.Gy
			src := py.g.Data[r*s.Gt : (r+1)*s.Gt]
			dst := py.svt[((X+1)*ny+Y+1)*nt:][:nt]
			run := 0.0
			for t, v := range src {
				run += v
				dst[t+1] = run
			}
		}
	})
	// Pass 2: cumulative sums along Y within each X plane.
	par.BlocksMin(p, s.Gx, 1+minAnalysisBlock/(s.Gy*s.Gt), func(_, lo, hi int) {
		for X := lo + 1; X <= hi; X++ {
			plane := py.svt[X*ny*nt:][:ny*nt]
			for Y := 2; Y <= s.Gy; Y++ {
				prev := plane[(Y-1)*nt:][:nt]
				cur := plane[Y*nt:][:nt]
				for t := range cur {
					cur[t] += prev[t]
				}
			}
		}
	})
	// Pass 3: cumulative sums along X; workers own disjoint Y rows so the
	// X recurrence stays sequential per cell.
	par.BlocksMin(p, ny, 1+minAnalysisBlock/(s.Gx*s.Gt), func(_, ylo, yhi int) {
		for X := 2; X <= s.Gx; X++ {
			for Y := ylo; Y < yhi; Y++ {
				prev := py.svt[((X-1)*ny+Y)*nt:][:nt]
				cur := py.svt[(X*ny+Y)*nt:][:nt]
				for t := range cur {
					cur[t] += prev[t]
				}
			}
		}
	})

	// Block maxima: one worker per run of (bX, bY) block columns.
	par.BlocksMin(p, py.bx*py.by, 1+minAnalysisBlock/(blockEdge*blockEdge*s.Gt), func(_, lo, hi int) {
		for bc := lo; bc < hi; bc++ {
			bX, bY := bc/py.by, bc%py.by
			maxs := py.blockMax[bc*py.bt:][:py.bt]
			for i := range maxs {
				maxs[i] = math.Inf(-1)
			}
			for X := bX << blockShift; X < min((bX+1)<<blockShift, s.Gx); X++ {
				for Y := bY << blockShift; Y < min((bY+1)<<blockShift, s.Gy); Y++ {
					row := py.g.Data[(X*s.Gy+Y)*s.Gt:][:s.Gt]
					for t, v := range row {
						if m := &maxs[t>>blockShift]; v > *m {
							*m = v
						}
					}
				}
			}
		}
	})

	// Visit order: distinct indices break every tie, so the order is total
	// and the sort deterministic whatever the worker count.
	for i := range py.order {
		py.order[i] = int32(i)
	}
	slices.SortFunc(py.order, func(a, b int32) int {
		if c := cmp.Compare(py.blockMax[b], py.blockMax[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// Bytes returns the memory footprint of the pyramid's tables.
func (py *Pyramid) Bytes() int64 { return PyramidBytes(py.g.Spec) }

// corner reads the inclusive prefix sum over [0,X) x [0,Y) x [0,T).
func (py *Pyramid) corner(X, Y, T int) float64 {
	s := py.g.Spec
	return py.svt[(X*(s.Gy+1)+Y)*(s.Gt+1)+T]
}

// BoxMass integrates the density over a voxel box (sum * sres^2 * tres) in
// O(1) via the 8-corner inclusion–exclusion of the summed-volume table.
func (py *Pyramid) BoxMass(b Box) float64 {
	s := py.g.Spec
	b = b.Clip(s.Bounds())
	if b.Empty() {
		return 0
	}
	x0, x1 := b.X0, b.X1+1
	y0, y1 := b.Y0, b.Y1+1
	t0, t1 := b.T0, b.T1+1
	hiT := py.corner(x1, y1, t1) - py.corner(x0, y1, t1) -
		py.corner(x1, y0, t1) + py.corner(x0, y0, t1)
	loT := py.corner(x1, y1, t0) - py.corner(x0, y1, t0) -
		py.corner(x1, y0, t0) + py.corner(x0, y0, t0)
	return (hiT - loT) * s.SRes * s.SRes * s.TRes
}

// TopK returns the k highest-density voxels in descending density order
// (ties broken by ascending flat index), identical to Grid.TopK, but
// visiting blocks in the build-time descending block-maximum order and
// stopping as soon as no remaining block can beat the current floor:
// O(k + touched blocks) for peaked densities instead of O(G). It
// allocates only the selector and the answer.
func (py *Pyramid) TopK(k int) []VoxelDensity {
	s := py.g.Spec
	if k <= 0 {
		return nil
	}
	if k > len(py.g.Data) {
		k = len(py.g.Data)
	}
	h := newTopKSelector(k)
	for _, bi := range py.order {
		if h.full() && py.blockMax[bi] < h.floor().v {
			break // no remaining block can displace a retained candidate
		}
		b := int(bi)
		bT := b % py.bt
		bY := (b / py.bt) % py.by
		bX := b / (py.bt * py.by)
		t0, t1 := bT<<blockShift, min((bT+1)<<blockShift, s.Gt)
		for X := bX << blockShift; X < min((bX+1)<<blockShift, s.Gx); X++ {
			for Y := bY << blockShift; Y < min((bY+1)<<blockShift, s.Gy); Y++ {
				base := (X*s.Gy+Y)*s.Gt + t0
				for t, v := range py.g.Data[base : base+(t1-t0)] {
					if h.full() && v < h.floor().v {
						continue
					}
					h.offer(base+t, v)
				}
			}
		}
	}
	return h.drain(s.Gt, s.Gy)
}
