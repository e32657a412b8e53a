package grid

// Box is an axis-aligned box of voxels with inclusive bounds on all three
// axes. An empty box is any box with X1 < X0, Y1 < Y0, or T1 < T0.
type Box struct {
	X0, X1 int
	Y0, Y1 int
	T0, T1 int
}

// Empty reports whether the box contains no voxels.
func (b Box) Empty() bool {
	return b.X1 < b.X0 || b.Y1 < b.Y0 || b.T1 < b.T0
}

// Count returns the number of voxels in the box (0 if empty).
func (b Box) Count() int {
	if b.Empty() {
		return 0
	}
	return (b.X1 - b.X0 + 1) * (b.Y1 - b.Y0 + 1) * (b.T1 - b.T0 + 1)
}

// Clip returns the intersection of b with o.
func (b Box) Clip(o Box) Box {
	return Box{
		max(b.X0, o.X0), min(b.X1, o.X1),
		max(b.Y0, o.Y0), min(b.Y1, o.Y1),
		max(b.T0, o.T0), min(b.T1, o.T1),
	}
}

// Expand grows the box by hs voxels in both spatial directions and ht
// voxels in both temporal directions.
func (b Box) Expand(hs, ht int) Box {
	return Box{b.X0 - hs, b.X1 + hs, b.Y0 - hs, b.Y1 + hs, b.T0 - ht, b.T1 + ht}
}

// Dims returns the box extents along each axis (0 if empty).
func (b Box) Dims() (nx, ny, nt int) {
	if b.Empty() {
		return 0, 0, 0
	}
	return b.X1 - b.X0 + 1, b.Y1 - b.Y0 + 1, b.T1 - b.T0 + 1
}
