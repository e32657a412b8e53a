package core

import (
	"time"

	"repro/internal/grid"
)

// runVB is Algorithm 1, the voxel-based gold standard: for every voxel,
// scan every point and accumulate the kernel product when the point lies
// inside the voxel's bandwidth cylinder. Θ(Gx·Gy·Gt·n).
func runVB(pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	res := &Result{}
	t0 := time.Now()
	g, err := grid.NewGrid(spec, opt.Budget)
	if err != nil {
		return nil, err
	}
	res.Grid = g
	res.Phases.Init = time.Since(t0)

	c := newCtx(pts, spec, opt)

	t0 = time.Now()
	var st Stats
	for X := 0; X < spec.Gx; X++ {
		x := spec.CenterX(X)
		for Y := 0; Y < spec.Gy; Y++ {
			y := spec.CenterY(Y)
			row := g.Data[g.Idx(X, Y, 0) : g.Idx(X, Y, 0)+spec.Gt]
			for T := 0; T < spec.Gt; T++ {
				t := spec.CenterT(T)
				sum := 0.0
				for i := range pts {
					dx := pts[i].X - x
					dy := pts[i].Y - y
					dt := pts[i].T - t
					if dx*dx+dy*dy < c.hs2 && dt >= -c.ht && dt <= c.ht {
						sum += c.sk.Eval(dx/c.hs, dy/c.hs) *
							c.tk.Eval(dt/c.ht) * c.norm
						st.SKEvals++
						st.TKEvals++
						st.Updates++
					}
				}
				row[T] = sum
			}
		}
	}
	res.Phases.Compute = time.Since(t0)
	res.Stats = st
	return res, nil
}

// runVBDEC is the VB-DEC variant of Section 6.2: points are partitioned
// into blocks of bandwidth size so each voxel only tests points from its
// own and the 26 neighboring blocks — the only points that can possibly
// affect it.
func runVBDEC(pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	res := &Result{}
	t0 := time.Now()
	g, err := grid.NewGrid(spec, opt.Budget)
	if err != nil {
		return nil, err
	}
	res.Grid = g
	res.Phases.Init = time.Since(t0)

	// Bin phase: the Morton pre-pass first, so every block's candidate list
	// enumerates points in cache-adjacent order, then assign points to
	// bandwidth-sized blocks of voxels.
	t0 = time.Now()
	pts, _ = sortedByMorton(pts, spec, opt)
	c := newCtx(pts, spec, opt)
	bsXY := max(c.boxHs, 1)
	bsT := max(c.boxHt, 1)
	nbx := (spec.Gx + bsXY - 1) / bsXY
	nby := (spec.Gy + bsXY - 1) / bsXY
	nbt := (spec.Gt + bsT - 1) / bsT
	bins := make([][]int32, nbx*nby*nbt)
	binID := func(bx, by, bt int) int { return (bx*nby+by)*nbt + bt }
	for i, p := range pts {
		X, Y, T := spec.VoxelOf(p)
		id := binID(X/bsXY, Y/bsXY, T/bsT)
		bins[id] = append(bins[id], int32(i))
	}
	res.Phases.Bin = time.Since(t0)

	t0 = time.Now()
	var st Stats
	var cand []int32
	for bx := 0; bx < nbx; bx++ {
		for by := 0; by < nby; by++ {
			for bt := 0; bt < nbt; bt++ {
				// Gather candidate points from the 27 neighboring blocks.
				cand = cand[:0]
				for dx := -1; dx <= 1; dx++ {
					nx := bx + dx
					if nx < 0 || nx >= nbx {
						continue
					}
					for dy := -1; dy <= 1; dy++ {
						ny := by + dy
						if ny < 0 || ny >= nby {
							continue
						}
						for dt := -1; dt <= 1; dt++ {
							nt := bt + dt
							if nt < 0 || nt >= nbt {
								continue
							}
							cand = append(cand, bins[binID(nx, ny, nt)]...)
						}
					}
				}
				if len(cand) == 0 {
					continue
				}
				// Scan the voxels of this block against the candidates.
				x1 := min((bx+1)*bsXY, spec.Gx)
				y1 := min((by+1)*bsXY, spec.Gy)
				t1 := min((bt+1)*bsT, spec.Gt)
				for X := bx * bsXY; X < x1; X++ {
					x := spec.CenterX(X)
					for Y := by * bsXY; Y < y1; Y++ {
						y := spec.CenterY(Y)
						row := g.Data[g.Idx(X, Y, 0) : g.Idx(X, Y, 0)+spec.Gt]
						for T := bt * bsT; T < t1; T++ {
							t := spec.CenterT(T)
							sum := 0.0
							for _, ci := range cand {
								p := pts[ci]
								dx := p.X - x
								dy := p.Y - y
								dt := p.T - t
								if dx*dx+dy*dy < c.hs2 && dt >= -c.ht && dt <= c.ht {
									sum += c.sk.Eval(dx/c.hs, dy/c.hs) *
										c.tk.Eval(dt/c.ht) * c.norm
									st.SKEvals++
									st.TKEvals++
									st.Updates++
								}
							}
							row[T] += sum
						}
					}
				}
			}
		}
	}
	res.Phases.Compute = time.Since(t0)
	res.Stats = st
	return res, nil
}

// runPointBased is the shared sequential driver of the teaching ladder (PB,
// PB-DISK, PB-BAR): initialize the grid, then apply each point's cylinder.
func runPointBased(apply applyFn, pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	res := &Result{}
	t0 := time.Now()
	g, err := grid.NewGrid(spec, opt.Budget)
	if err != nil {
		return nil, err
	}
	res.Grid = g
	res.Phases.Init = time.Since(t0)

	var sortT time.Duration
	pts, sortT = sortedByMorton(pts, spec, opt)
	res.Phases.Bin = sortT

	c := newCtx(pts, spec, opt)
	sc := newScratch(&c)
	v := gridView(g)
	bounds := spec.Bounds()

	t0 = time.Now()
	for _, p := range pts {
		apply(v, &c, p, bounds, sc)
	}
	res.Phases.Compute = time.Since(t0)
	sc.mergeInto(&res.Stats)
	return res, nil
}

func runPB(pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	return runPointBased(applyPB, pts, spec, opt)
}

func runPBDISK(pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	return runPointBased(applyDisk, pts, spec, opt)
}

func runPBBAR(pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	return runPointBased(applyBar, pts, spec, opt)
}

// runPBSYM is sequential PB-SYM. Unlike the teaching ladder above, whose
// per-point loop Table 3 measures, it applies the sorted points in blocks
// (applySymPoints).
func runPBSYM(pts []grid.Point, spec grid.Spec, opt Options) (*Result, error) {
	res := &Result{}
	t0 := time.Now()
	g, err := grid.NewGrid(spec, opt.Budget)
	if err != nil {
		return nil, err
	}
	res.Grid = g
	res.Phases.Init = time.Since(t0)

	pts, res.Phases.Bin = sortedByMorton(pts, spec, opt)
	c := newCtx(pts, spec, opt)
	b := newSymScratch(&c, symBlock)

	t0 = time.Now()
	applySymPoints(gridView(g), &c, pts, nil, spec.Bounds(), b)
	res.Phases.Compute = time.Since(t0)
	b.mergeInto(&res.Stats)
	return res, nil
}
