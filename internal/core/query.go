package core

import (
	"repro/internal/grid"
	"repro/internal/kernel"
)

// Query answers exact point-wise density queries at arbitrary continuous
// space-time coordinates, without building a voxel grid at all. It is the
// right tool when only a handful of locations matter (e.g. "what is the
// estimated risk at this clinic today?"), complementing the grid-producing
// estimators whose cost is dominated by the Θ(Gx·Gy·Gt) volume.
//
// Internally it uses the same bandwidth-block binning idea as VB-DEC: the
// events are partitioned into bandwidth-sized blocks, so a query only scans
// the 27 blocks around it rather than all n events.
type Query struct {
	spec grid.Spec
	pts  []grid.Point
	sk   kernel.Spatial
	tk   kernel.Temporal
	norm float64

	nbx, nby, nbt int
	bsXY, bsT     float64
	bins          [][]int32
}

// NewQuery indexes the events for point-wise density evaluation. The spec's
// resolutions are irrelevant here (no discretization happens); only the
// domain and bandwidths matter.
func NewQuery(pts []grid.Point, spec grid.Spec, opt Options) *Query {
	opt = opt.withDefaults()
	q := &Query{
		spec: spec, pts: pts,
		sk: opt.Spatial, tk: opt.Temporal,
		norm: spec.NormFactor(len(pts)),
		bsXY: spec.HS, bsT: spec.HT,
	}
	q.nbx, q.nby, q.nbt = queryBlocks(spec)
	q.bins = make([][]int32, q.nbx*q.nby*q.nbt)
	for i, p := range pts {
		id := q.binOf(p.X, p.Y, p.T)
		q.bins[id] = append(q.bins[id], int32(i))
	}
	return q
}

// queryBlocks returns the bandwidth-block counts along X, Y and T that a
// Query over the spec bins its events into.
func queryBlocks(spec grid.Spec) (nbx, nby, nbt int) {
	d := spec.Domain
	return max(1, int(d.GX/spec.HS)+1), max(1, int(d.GY/spec.HS)+1), max(1, int(d.GT/spec.HT)+1)
}

// QueryBytes returns the memory a Query over n events on the spec holds
// beyond the caller's events, before building one (the serving tier
// charges it to its cache budget): one slice header (pointer, length,
// capacity) per block and an int32 id per event.
func QueryBytes(spec grid.Spec, n int) int64 {
	nbx, nby, nbt := queryBlocks(spec)
	return int64(nbx)*int64(nby)*int64(nbt)*3*8 + int64(n)*4
}

func (q *Query) binOf(x, y, t float64) int {
	d := q.spec.Domain
	bx := clamp(int((x-d.X0)/q.bsXY), 0, q.nbx-1)
	by := clamp(int((y-d.Y0)/q.bsXY), 0, q.nby-1)
	bt := clamp(int((t-d.T0)/q.bsT), 0, q.nbt-1)
	return (bx*q.nby+by)*q.nbt + bt
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// At returns the exact density estimate at the continuous location
// (x, y, t) — the same quantity a voxel of the grid-based estimators holds
// when its center is exactly there.
//
// The bin lookup clamps exactly like binOf: out-of-domain events sit in
// the edge bins (live stream events outrun the creation domain after
// window advances), so an out-of-domain query must scan those same edge
// bins — the kernel distance tests then keep the result exact.
func (q *Query) At(x, y, t float64) float64 {
	hs, ht := q.spec.HS, q.spec.HT
	hs2 := hs * hs
	d := q.spec.Domain
	bx := clamp(int((x-d.X0)/q.bsXY), 0, q.nbx-1)
	by := clamp(int((y-d.Y0)/q.bsXY), 0, q.nby-1)
	bt := clamp(int((t-d.T0)/q.bsT), 0, q.nbt-1)
	sum := 0.0
	for dx := -1; dx <= 1; dx++ {
		nx := bx + dx
		if nx < 0 || nx >= q.nbx {
			continue
		}
		for dy := -1; dy <= 1; dy++ {
			ny := by + dy
			if ny < 0 || ny >= q.nby {
				continue
			}
			for dt := -1; dt <= 1; dt++ {
				nt := bt + dt
				if nt < 0 || nt >= q.nbt {
					continue
				}
				for _, i := range q.bins[(nx*q.nby+ny)*q.nbt+nt] {
					p := q.pts[i]
					ddx := p.X - x
					ddy := p.Y - y
					ddt := p.T - t
					if ddx*ddx+ddy*ddy < hs2 && ddt >= -ht && ddt <= ht {
						sum += q.sk.Eval(ddx/hs, ddy/hs) * q.tk.Eval(ddt/ht)
					}
				}
			}
		}
	}
	return sum * q.norm
}
