package grid

import (
	"math"
	"math/rand"
	"testing"
)

// refresh rebuilds every dirty block eagerly — a test-only helper for
// asserting repair bookkeeping. Production queries never repair in bulk:
// BoxSum rebuilds only full-in-box dirty blocks and TopK repairs lazily
// through the upper-bound heap.
func (sk *RingSketch) refresh() {
	for b, d := range sk.dirty {
		if d {
			sk.rebuildBlock(b)
		}
	}
}

// sketchRing builds a ring plus its sketch for the property tests.
func sketchRing(t *testing.T, gx, gy, gt float64) (*Ring, *RingSketch) {
	t.Helper()
	s := mustSpec(t, Domain{X0: 5, Y0: -1, T0: 2, GX: gx, GY: gy, GT: gt}, 1, 1, 2, 2)
	r, err := NewRing(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := r.EnableSketch(nil)
	if err != nil {
		t.Fatal(err)
	}
	return r, sk
}

// applyBox adds delta to every window voxel in the (logical) box through
// the ring's physical mapping and marks the sketch dirty — the shape of
// one signed-weight event application.
func applyBox(r *Ring, b Box, delta float64) {
	s := r.Spec()
	b = b.Clip(s.Bounds())
	if b.Empty() {
		return
	}
	for X := b.X0; X <= b.X1; X++ {
		for Y := b.Y0; Y <= b.Y1; Y++ {
			for T := b.T0; T <= b.T1; T++ {
				*ringVoxel(r, X, Y, T) += delta
			}
		}
	}
	r.MarkDirty(b, math.Max(delta, 0))
}

// checkSketchAgainstSnapshot compares every sketch answer with the naive
// scan of a materialized snapshot.
func checkSketchAgainstSnapshot(t *testing.T, r *Ring, sk *RingSketch, rng *rand.Rand, step int) {
	t.Helper()
	g, err := r.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Spec()
	for trial := 0; trial < 20; trial++ {
		b := randomBox(rng, s)
		want := 0.0
		cb := b.Clip(s.Bounds())
		if !cb.Empty() {
			for X := cb.X0; X <= cb.X1; X++ {
				for Y := cb.Y0; Y <= cb.Y1; Y++ {
					for T := cb.T0; T <= cb.T1; T++ {
						want += g.At(X, Y, T)
					}
				}
			}
		}
		if got := sk.BoxSum(b); !close9(got, want) {
			t.Fatalf("step %d box %+v: sketch sum %g, naive %g", step, b, got, want)
		}
	}
	const scale = 1.0 / 7
	norm, err := r.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range norm.Data {
		norm.Data[i] *= scale
	}
	for _, k := range []int{1, 5, 25} {
		want := norm.TopK(k)
		got := sk.TopK(k, scale)
		if len(got) != len(want) {
			t.Fatalf("step %d k=%d: sketch %d voxels, naive %d", step, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d k=%d rank %d: sketch %+v, naive %+v", step, k, i, got[i], want[i])
			}
		}
	}
}

// TestRingSketchInterleavings drives rings of several window lengths
// through random Add/Remove/Advance interleavings (the advances wrap the
// ring base repeatedly) and asserts every sketch answer against the naive
// snapshot scans.
func TestRingSketchInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dims := range [][3]float64{{6, 5, 4}, {19, 13, 11}, {24, 17, 40}} {
		r, sk := sketchRing(t, dims[0], dims[1], dims[2])
		s := r.Spec()
		for step := 0; step < 60; step++ {
			switch rng.Intn(4) {
			case 0, 1: // add: a positive contribution box
				applyBox(r, randomBox(rng, s), 1+rng.Float64())
			case 2: // remove: retract from a box (signed negative apply)
				applyBox(r, randomBox(rng, s), -rng.Float64())
			case 3: // advance, sometimes past the whole window
				r.Advance(1+rng.Intn(s.Gt+s.Ht+2), 1+rng.Intn(3))
			}
			if step%7 == 0 || step == 59 {
				checkSketchAgainstSnapshot(t, r, sk, rng, step)
			}
		}
	}
}

// countDirty counts the sketch's dirty blocks.
func countDirty(sk *RingSketch) int {
	n := 0
	for _, d := range sk.dirty {
		if d {
			n++
		}
	}
	return n
}

// TestRingSketchAdvanceZeroFastPath asserts that wholly-freed T-blocks are
// zeroed in place without going dirty, while boundary blocks go dirty.
func TestRingSketchAdvanceZeroFastPath(t *testing.T) {
	r, sk := sketchRing(t, 10, 9, 32)
	s := r.Spec()
	applyBox(r, s.Bounds(), 1) // everything 1
	sk.refresh()
	if n := countDirty(sk); n != 0 {
		t.Fatalf("refresh left %d dirty blocks", n)
	}
	// Advance by 10 layers: physical layers 0..9 are freed. T-blocks 0
	// ([0,4)) and 1 ([4,8)) are fully inside and must be clean zero; block
	// 2 ([8,12)) is split and must be dirty.
	r.Advance(10, 2)
	if n := countDirty(sk); n != sk.bx*sk.by {
		t.Fatalf("dirty blocks = %d, want one boundary T-block per column = %d", n, sk.bx*sk.by)
	}
	for bc := 0; bc < sk.bx*sk.by; bc++ {
		for bT := 0; bT < 2; bT++ {
			if v := sk.sum[bc*sk.bt+bT]; v != 0 {
				t.Fatalf("fully-freed block sum = %g, want 0", v)
			}
			if sk.dirty[bc*sk.bt+bT] {
				t.Fatal("fully-freed block is dirty")
			}
		}
		if !sk.dirty[bc*sk.bt+2] {
			t.Fatal("boundary block is not dirty")
		}
	}
	// The answers stay exact after the partial invalidation.
	rng := rand.New(rand.NewSource(22))
	checkSketchAgainstSnapshot(t, r, sk, rng, -1)
}

func TestRingSketchBudgetAndRelease(t *testing.T) {
	s := mustSpec(t, Domain{GX: 12, GY: 10, GT: 16}, 1, 1, 2, 2)
	b := NewBudget(RingBytes(s) + RingSketchBytes(s))
	r, err := NewRing(s, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.EnableSketch(b); err != nil {
		t.Fatal(err)
	}
	if got, want := b.Used(), RingBytes(s)+RingSketchBytes(s); got != want {
		t.Fatalf("budget used = %d, want %d", got, want)
	}
	if sk2, err := r.EnableSketch(b); err != nil || sk2 != r.Sketch() {
		t.Fatalf("EnableSketch is not idempotent: %v", err)
	}
	if got, want := b.Used(), RingBytes(s)+RingSketchBytes(s); got != want {
		t.Fatalf("idempotent enable recharged the budget: %d != %d", got, want)
	}
	r.Release()
	if got := b.Used(); got != 0 {
		t.Fatalf("budget used after Release = %d, want 0", got)
	}
}

// TestRingSketchRebuildsOnlyDirty proves laziness: a localized write
// rebuilds only the blocks its box touches.
func TestRingSketchRebuildsOnlyDirty(t *testing.T) {
	r, sk := sketchRing(t, 32, 32, 32)
	sk.refresh() // initial full build
	before := sk.Rebuilt()
	applyBox(r, Box{3, 5, 9, 10, 17, 18}, 2) // touches 1x1x2 blocks... at most 8
	sk.refresh()
	rebuilt := sk.Rebuilt() - before
	if rebuilt < 1 || rebuilt > 8 {
		t.Fatalf("localized write rebuilt %d blocks, want a handful", rebuilt)
	}
	if sk.BoxSum(Box{3, 5, 9, 10, 17, 18}) != float64(3*2*2)*2 {
		t.Fatalf("BoxSum = %g, want %g", sk.BoxSum(Box{3, 5, 9, 10, 17, 18}), float64(3*2*2)*2)
	}
}

// TestRingSketchHiddenLayers fills the hidden layers with values above
// anything visible and checks At, Snapshot, BoxSum and TopK (exactly,
// including the order of the many ties integer values make) against a
// logical model of the visible layers alone, across advances by 1, Ht,
// Ht+1 and Gt+Ht+1 layers. The window is 10 layers over a 13-layer ring,
// so its end and its start fall inside 4-layer sketch blocks.
func TestRingSketchHiddenLayers(t *testing.T) {
	s := mustSpec(t, Domain{GX: 9, GY: 7, GT: 10}, 1, 1, 2, 2.5)
	r, err := NewRing(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := r.EnableSketch(nil)
	if err != nil {
		t.Fatal(err)
	}
	L := r.Layers()
	if s.Ht != 3 || L != s.Gt+s.Ht {
		t.Fatalf("Gt %d, Ht %d, %d layers: want 10, 3, 13", s.Gt, s.Ht, L)
	}
	model := make([]float64, s.Gx*s.Gy*L) // logical layers, T innermost
	rng := rand.New(rand.NewSource(23))
	write := func(b Box, delta float64) {
		for X := b.X0; X <= b.X1; X++ {
			for Y := b.Y0; Y <= b.Y1; Y++ {
				for T := b.T0; T <= b.T1; T++ {
					*ringVoxel(r, X, Y, T) += delta
					model[(X*s.Gy+Y)*L+T] += delta
				}
			}
		}
		r.MarkDirty(b, math.Max(delta, 0))
	}
	randBox := func(t0, t1 int) Box {
		x0, y0, T0 := rng.Intn(s.Gx), rng.Intn(s.Gy), t0+rng.Intn(t1-t0+1)
		return Box{x0, x0 + rng.Intn(s.Gx-x0), y0, y0 + rng.Intn(s.Gy-y0), T0, T0 + rng.Intn(t1-T0+1)}
	}
	endInBlock := false
	check := func(tag string) {
		t.Helper()
		sp := r.Spec()
		endInBlock = endInBlock || (r.PhysOf(0)+sp.Gt)%L%sketchEdge != 0
		want, err := NewGrid(sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		for row := 0; row < sp.Gx*sp.Gy; row++ {
			copy(want.Data[row*sp.Gt:(row+1)*sp.Gt], model[row*L:])
		}
		snap, err := r.Snapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range want.Data {
			X, Y, T := i/(sp.Gt*sp.Gy), i/sp.Gt%sp.Gy, i%sp.Gt
			if snap.Data[i] != v || r.At(X, Y, T) != v {
				t.Fatalf("%s: voxel (%d,%d,%d): snapshot %g, At %g, visible model %g", tag, X, Y, T, snap.Data[i], r.At(X, Y, T), v)
			}
		}
		for trial := 0; trial < 30; trial++ {
			b := randBox(0, L-1) // may reach past the window: clipped
			if trial == 0 {
				b = sp.Bounds()
			}
			sum := 0.0
			if cb := b.Clip(sp.Bounds()); !cb.Empty() {
				for X := cb.X0; X <= cb.X1; X++ {
					for Y := cb.Y0; Y <= cb.Y1; Y++ {
						for T := cb.T0; T <= cb.T1; T++ {
							sum += want.At(X, Y, T)
						}
					}
				}
			}
			if got := sk.BoxSum(b); got != sum {
				t.Fatalf("%s: BoxSum(%+v) = %g, visible scan %g", tag, b, got, sum)
			}
		}
		const scale = 1.0 / 3
		for i := range want.Data {
			want.Data[i] *= scale
		}
		for _, k := range []int{1, 9, 40, sp.Voxels() + 5} {
			wantTop, got := want.TopK(k), sk.TopK(k, scale)
			if len(got) != len(wantTop) {
				t.Fatalf("%s k=%d: sketch %d voxels, visible scan %d", tag, k, len(got), len(wantTop))
			}
			for i := range wantTop {
				if got[i] != wantTop[i] {
					t.Fatalf("%s k=%d rank %d: sketch %+v, visible scan %+v", tag, k, i, got[i], wantTop[i])
				}
			}
		}
	}
	for _, k := range []int{1, s.Ht, s.Ht + 1, s.Gt + s.Ht + 1, 1, s.Ht, s.Ht + 1, 1} {
		for i := 0; i < 6; i++ {
			write(randBox(0, L-1), float64(rng.Intn(3)-1))
			write(randBox(s.Gt, L-1), float64(50+rng.Intn(4))) // hidden only
		}
		check("written")
		r.Advance(k, 2)
		for row := 0; row < s.Gx*s.Gy; row++ {
			m := model[row*L : (row+1)*L]
			clear(m[copy(m, m[min(k, L):]):])
		}
		check("advanced")
	}
	if !endInBlock {
		t.Fatal("the window's end never fell inside a sketch block")
	}
}
