package grid

// Slab is one temporal shard of a root Spec, produced by CarveT. It owns the
// contiguous voxel layers [T0, T1] of the root grid and carries a local
// sub-spec whose layer 0 is root layer T0. Slabs are the unit of work of the
// simulated distributed-memory estimator (repro/internal/dist): each rank
// computes densities only for the voxels of its slab.
type Slab struct {
	Index  int  // rank index in [0, len(slabs))
	T0, T1 int  // owned voxel layers, inclusive, in the root frame
	Spec   Spec // local sub-spec: Gt = T1-T0+1, OT = root OT + T0
}

// SubSpecT returns the sub-spec covering root voxel layers [t0, t1]
// (inclusive). The sub-spec keeps the root domain, bandwidths and spatial
// axes; only the temporal window changes. Its voxel centers are bitwise
// identical to the root spec's centers for the same root layer, so any
// estimator run on the sub-spec reproduces the corresponding layers of the
// root estimate exactly. t0 and t1 are clamped to the grid.
func (s Spec) SubSpecT(t0, t1 int) Spec {
	t0 = clamp(t0, 0, s.Gt-1)
	t1 = clamp(t1, t0, s.Gt-1)
	sub := s
	sub.Gt = t1 - t0 + 1
	sub.OT = s.OT + t0
	return sub
}

// CarveT partitions the spec's time axis into r voxel-aligned temporal
// slabs using the same balanced split as Decomp: slab i covers layers
// [floor(i*Gt/r), floor((i+1)*Gt/r) - 1]. r is clamped to [1, Gt] so every
// slab is nonempty; together the slabs tile [0, Gt-1] exactly.
func (s Spec) CarveT(r int) []Slab {
	r = clamp(r, 1, s.Gt)
	starts := bounds(s.Gt, r)
	slabs := make([]Slab, r)
	for i := 0; i < r; i++ {
		t0, t1 := starts[i], starts[i+1]-1
		slabs[i] = Slab{Index: i, T0: t0, T1: t1, Spec: s.SubSpecT(t0, t1)}
	}
	return slabs
}

// OwnsLayer reports whether root voxel layer T belongs to the slab.
func (sl Slab) OwnsLayer(T int) bool { return T >= sl.T0 && T <= sl.T1 }

// NeedsLayer reports whether a point whose root temporal voxel is T can
// contribute density to the slab, i.e. whether the point's influence box
// (the voxel extended by ht voxels both ways) intersects the owned layers.
// Points that fail this test for every neighboring slab need not be
// replicated there (halo exchange).
func (sl Slab) NeedsLayer(T, ht int) bool {
	return T >= sl.T0-ht && T <= sl.T1+ht
}
