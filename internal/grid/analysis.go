package grid

import "repro/internal/par"

// Analysis helpers for the visualization pipeline the paper's introduction
// describes: once the 3-D density volume exists, analysts project it,
// integrate regions of it and pick its hotspots interactively. The O(G)
// projection is parallelized with par blocks, partitioned over *output*
// layers so every layer accumulates its sum in exactly the sequential
// order — the result is bitwise identical to a single-threaded pass
// regardless of worker count.

// minAnalysisBlock is the smallest number of input voxels worth handing to
// an analysis worker; below it goroutine startup dominates the streaming
// reads (same reasoning as minTouchBlock, but these bodies do arithmetic).
const minAnalysisBlock = 1 << 14

// TemporalProfile returns the spatially integrated density per time layer:
// profile[T] = sum over X,Y of density * sres^2. It is the epidemic curve
// of the dataset (integrates to ~1 over time when multiplied by tres).
// Workers partition the output layers, so every layer's sum runs over the
// (X, Y) rows in the exact sequential order.
func (g *Grid) TemporalProfile() []float64 {
	s := g.Spec
	out := make([]float64, s.Gt)
	cell := s.SRes * s.SRes
	rows := s.Gx * s.Gy
	par.BlocksMin(0, s.Gt, 1+minAnalysisBlock/rows, func(_, tlo, thi int) {
		for r := 0; r < rows; r++ {
			row := g.Data[r*s.Gt : (r+1)*s.Gt]
			for T := tlo; T < thi; T++ {
				out[T] += row[T] * cell
			}
		}
	})
	return out
}

// BoxMass integrates the density over a voxel box (sum * sres^2 * tres):
// the estimated probability mass of the space-time region. It is the O(box)
// reference scan; build a Pyramid for the O(1) summed-volume answer.
func (g *Grid) BoxMass(b Box) float64 {
	s := g.Spec
	b = b.Clip(s.Bounds())
	if b.Empty() {
		return 0
	}
	sum := 0.0
	nt := b.T1 - b.T0 + 1
	for X := b.X0; X <= b.X1; X++ {
		for Y := b.Y0; Y <= b.Y1; Y++ {
			base := g.Idx(X, Y, b.T0)
			row := g.Data[base : base+nt]
			for _, v := range row {
				sum += v
			}
		}
	}
	return sum * s.SRes * s.SRes * s.TRes
}

// VoxelDensity is one voxel and its density estimate, the unit of top-k
// hotspot reports.
type VoxelDensity struct {
	X, Y, T int
	V       float64
}

// voxelCandidate pairs a flat voxel index with its density for the top-k
// selection heap.
type voxelCandidate struct {
	idx int
	v   float64
}

// topKSelector is a concrete, non-allocating min-heap of the k best
// candidates seen so far under the total order "higher density first, ties
// toward the lower flat index". The root is the weakest retained candidate
// (the floor), so a full selector rejects most offers with one comparison.
// Because the order is total, the selected set — and therefore the drained
// output — is independent of the order candidates are offered in, which is
// what lets the Pyramid and RingSketch visit voxels block by block and
// still match the sequential scan exactly.
type topKSelector struct {
	c []voxelCandidate
	k int
}

func newTopKSelector(k int) topKSelector {
	return topKSelector{c: make([]voxelCandidate, 0, k), k: k}
}

// outranks reports whether candidate a ranks strictly above b.
func (a voxelCandidate) outranks(b voxelCandidate) bool {
	if a.v != b.v {
		return a.v > b.v
	}
	return a.idx < b.idx
}

// full reports whether k candidates are retained (the floor is meaningful).
func (h *topKSelector) full() bool { return len(h.c) == h.k }

// floor returns the weakest retained candidate; only valid when full.
func (h *topKSelector) floor() voxelCandidate { return h.c[0] }

// offer considers one candidate, keeping the selector at the k best.
func (h *topKSelector) offer(idx int, v float64) {
	cand := voxelCandidate{idx: idx, v: v}
	if len(h.c) < h.k {
		h.c = append(h.c, cand)
		h.siftUp(len(h.c) - 1)
		return
	}
	if !cand.outranks(h.c[0]) {
		return
	}
	h.c[0] = cand
	h.siftDown(0)
}

func (h *topKSelector) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.c[p].outranks(h.c[i]) { // parent already weaker or equal
			return
		}
		h.c[p], h.c[i] = h.c[i], h.c[p]
		i = p
	}
}

func (h *topKSelector) siftDown(i int) {
	n := len(h.c)
	for {
		weakest := i
		if l := 2*i + 1; l < n && h.c[weakest].outranks(h.c[l]) {
			weakest = l
		}
		if r := 2*i + 2; r < n && h.c[weakest].outranks(h.c[r]) {
			weakest = r
		}
		if weakest == i {
			return
		}
		h.c[i], h.c[weakest] = h.c[weakest], h.c[i]
		i = weakest
	}
}

// drain empties the selector into descending rank order, mapping flat
// indices back to voxel coordinates with the given T and Y extents.
func (h *topKSelector) drain(gt, gy int) []VoxelDensity {
	out := make([]VoxelDensity, len(h.c))
	for n := len(h.c) - 1; n >= 0; n-- {
		c := h.c[0]
		last := len(h.c) - 1
		h.c[0] = h.c[last]
		h.c = h.c[:last]
		h.siftDown(0)
		out[n] = VoxelDensity{
			X: c.idx / (gt * gy), Y: (c.idx / gt) % gy, T: c.idx % gt,
			V: c.v,
		}
	}
	return out
}

// TopK returns the k highest-density voxels in descending density order
// (ties broken by ascending flat index), in O(Voxels·log k) time and O(k)
// allocations: the "where are the hotspots?" query of interactive
// space-time-cube analysis. Build a Pyramid to prune the scan to the
// blocks that can still matter.
func (g *Grid) TopK(k int) []VoxelDensity {
	if k <= 0 {
		return nil
	}
	if k > len(g.Data) {
		k = len(g.Data)
	}
	h := newTopKSelector(k)
	for i, v := range g.Data {
		if h.full() && v < h.floor().v {
			// Strictly below the floor: cannot displace anything (an
			// equal-density candidate could still win its index tie).
			continue
		}
		h.offer(i, v)
	}
	return h.drain(g.Spec.Gt, g.Spec.Gy)
}

// MergeTopK selects the k highest-density voxels of one candidate list —
// totals already merged across shards, in the spec's logical coordinates
// and on one normalization scale — in the order a sequential scan of the
// merged grid would report them: higher density first, ties toward the
// lower flat index. A k past the list's length selects every candidate.
func MergeTopK(spec Spec, k int, cands []VoxelDensity) []VoxelDensity {
	if k <= 0 {
		return nil
	}
	h := newTopKSelector(min(k, len(cands)))
	for _, c := range cands {
		h.offer((c.X*spec.Gy+c.Y)*spec.Gt+c.T, c.V)
	}
	return h.drain(spec.Gt, spec.Gy)
}

// Threshold returns the voxel boxes (grown greedily along T runs) where
// density meets or exceeds the given level; a primitive cluster extraction
// for alerting ("which space-time regions are hot?"). Runs are reported as
// single-voxel-thick boxes along T for simplicity.
func (g *Grid) Threshold(level float64) []Box {
	s := g.Spec
	var out []Box
	for X := 0; X < s.Gx; X++ {
		for Y := 0; Y < s.Gy; Y++ {
			row := g.Data[g.Idx(X, Y, 0) : g.Idx(X, Y, 0)+s.Gt]
			start := -1
			for T := 0; T <= s.Gt; T++ {
				hot := T < s.Gt && row[T] >= level
				if hot && start < 0 {
					start = T
				}
				if !hot && start >= 0 {
					out = append(out, Box{X0: X, X1: X, Y0: Y, Y1: Y, T0: start, T1: T - 1})
					start = -1
				}
			}
		}
	}
	return out
}
