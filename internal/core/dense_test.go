package core

import "repro/internal/grid"

// The dense oracle: the original bandwidth-box scan of PB-DISK, PB-BAR and
// PB-SYM, with per-voxel interface dispatch over the whole influence box.
// It is the reference the span engine is compared against bitwise: the
// engine performs, per voxel, exactly these float operations in the same
// order, only over packed spans and with devirtualized or vector fills.

// denseEstimate runs alg (AlgPBDISK, AlgPBBAR or AlgPBSYM) through the
// sequential point-based driver with the dense scan in place of the span
// engine.
func denseEstimate(alg string, pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	apply := map[string]applyFn{
		AlgPBDISK: applyDiskDense,
		AlgPBBAR:  applyBarDense,
		AlgPBSYM:  applySymDense,
	}[alg]
	if apply == nil {
		panic("denseEstimate: no dense scan for " + alg)
	}
	return runPointBased(apply, pts, spec, opt.withDefaults())
}

// applyDiskDense is the dense-scan PB-DISK.
func applyDiskDense(v view, c *ctx, p grid.Point, clip grid.Box, sc *scratch) {
	box := c.spec.InfluenceBox(p).Clip(clip).Clip(v.box)
	if box.Empty() {
		return
	}
	nx, ny, nt := box.Dims()
	sc.ensure(nx, ny, nt)
	fillDiskDense(c, p, box, sc)
	i := 0
	for X := box.X0; X <= box.X1; X++ {
		for Y := box.Y0; Y <= box.Y1; Y++ {
			ks := sc.disk[i]
			i++
			if ks == 0 {
				continue
			}
			row := v.row(X, Y, box.T0, nt)
			for j := 0; j < nt; j++ {
				dt := c.spec.CenterT(box.T0+j) - p.T
				if dt >= -c.ht && dt <= c.ht {
					row[j] += ks * c.tk.Eval(dt/c.ht)
					sc.tkEvals++
					sc.updates++
				}
			}
		}
	}
}

// applyBarDense is the dense-scan PB-BAR.
func applyBarDense(v view, c *ctx, p grid.Point, clip grid.Box, sc *scratch) {
	box := c.spec.InfluenceBox(p).Clip(clip).Clip(v.box)
	if box.Empty() {
		return
	}
	_, _, nt := box.Dims()
	sc.ensure(1, 1, nt)
	fillBarDense(c, p, box, sc)
	for X := box.X0; X <= box.X1; X++ {
		dx := c.spec.CenterX(X) - p.X
		dxx := dx * dx
		for Y := box.Y0; Y <= box.Y1; Y++ {
			dy := c.spec.CenterY(Y) - p.Y
			if dxx+dy*dy >= c.hs2 {
				continue
			}
			row := v.row(X, Y, box.T0, nt)
			for j := 0; j < nt; j++ {
				if kt := sc.bar[j]; kt != 0 {
					row[j] += c.sk.Eval(dx/c.hs, dy/c.hs) * kt * c.norm
					sc.skEvals++
					sc.updates++
				}
			}
		}
	}
}

// applySymDense is the dense-scan PB-SYM.
func applySymDense(v view, c *ctx, p grid.Point, clip grid.Box, sc *scratch) {
	box := c.spec.InfluenceBox(p).Clip(clip).Clip(v.box)
	if box.Empty() {
		return
	}
	nx, ny, nt := box.Dims()
	sc.ensure(nx, ny, nt)
	fillDiskDense(c, p, box, sc)
	fillBarDense(c, p, box, sc)
	bar := sc.bar
	i := 0
	for X := box.X0; X <= box.X1; X++ {
		for Y := box.Y0; Y <= box.Y1; Y++ {
			ks := sc.disk[i]
			i++
			if ks == 0 {
				continue
			}
			row := v.row(X, Y, box.T0, nt)
			for j, kt := range bar {
				row[j] += ks * kt
			}
			sc.updates += int64(nt)
		}
	}
}

// fillDiskDense computes the spatial invariant Ks over the box's full
// (X, Y) extent, with the normalization constant folded in (as in
// Algorithm 3); out-of-circle entries are stored as zeros.
func fillDiskDense(c *ctx, p grid.Point, box grid.Box, sc *scratch) {
	i := 0
	for X := box.X0; X <= box.X1; X++ {
		dx := c.spec.CenterX(X) - p.X
		dxx := dx * dx
		for Y := box.Y0; Y <= box.Y1; Y++ {
			dy := c.spec.CenterY(Y) - p.Y
			if dxx+dy*dy < c.hs2 {
				sc.disk[i] = c.sk.Eval(dx*c.invHS, dy*c.invHS) * c.norm
				sc.skEvals++
			} else {
				sc.disk[i] = 0
			}
			i++
		}
	}
}

// fillBarDense computes the temporal invariant Kt over the box's full T
// extent; out-of-support entries are stored as zeros.
func fillBarDense(c *ctx, p grid.Point, box grid.Box, sc *scratch) {
	for j := 0; j <= box.T1-box.T0; j++ {
		dt := c.spec.CenterT(box.T0+j) - p.T
		if dt >= -c.ht && dt <= c.ht {
			sc.bar[j] = c.tk.Eval(dt * c.invHT)
			sc.tkEvals++
		} else {
			sc.bar[j] = 0
		}
	}
}
