package core

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/grid"
	"repro/internal/kernel"
)

// stripThreads are the strip counts the parallel apply is checked at, set
// explicitly so the runs do not depend on GOMAXPROCS.
var stripThreads = []int{1, 2, 3, 8}

// newStripUpdaters creates one updater per strip count in stripThreads;
// the first (P = 1) is the reference.
func newStripUpdaters(t *testing.T, spec grid.Spec, cfg UpdaterConfig) []*Updater {
	t.Helper()
	us := make([]*Updater, len(stripThreads))
	for i, p := range stripThreads {
		cfg.Options.Threads = p
		u, err := NewUpdater(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(u.Release)
		us[i] = u
	}
	return us
}

// mutation is one scenario step: it mutates u with draws from rng and
// returns the advanced frontier.
type mutation func(u *Updater, rng *lcg, frontier float64) float64

// lockstep applies the same mutation to every updater (each from the same
// rng state, so all draw identical events) and asserts that each one's
// window still equals the reference's bit for bit. It returns the rng
// state and frontier after the step.
func lockstep(t *testing.T, tag string, us []*Updater, rng lcg, frontier float64, m mutation) (lcg, float64) {
	t.Helper()
	var next lcg
	var f float64
	for i, u := range us {
		r := rng
		fi := m(u, &r, frontier)
		if i > 0 && (r != next || fi != f) {
			t.Fatalf("%s: P=%d drew a different mutation than P=1", tag, stripThreads[i])
		}
		next, f = r, fi
	}
	for i, u := range us[1:] {
		expectSameAsOneStrip(t, fmt.Sprintf("%s P=%d", tag, stripThreads[i+1]), us[0], u)
	}
	return next, f
}

// expectSameAsOneStrip asserts that u holds bitwise the whole ring — its
// Gt visible and Ht hidden layers — live set and analytics answers of ref,
// and did the same counted work apart from its strip applications.
func expectSameAsOneStrip(t *testing.T, tag string, ref, u *Updater) {
	t.Helper()
	if ref.Spec() != u.Spec() || ref.ring.Base() != u.ring.Base() {
		t.Fatalf("%s: window frames differ", tag)
	}
	same := func(what string, a, b []float64) {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s voxel %d differs: %x vs %x", tag, what, i, a[i], b[i])
			}
		}
	}
	same("ring", ref.ring.Data, u.ring.Data)
	expectSameLive(t, tag, ref, u)
	if !maps.EqualFunc(ref.live, u.live, slices.Equal) {
		t.Fatalf("%s: expiry buckets differ", tag)
	}
	wantTop, err := ref.TopK(9)
	if err != nil {
		t.Fatal(err)
	}
	top, err := u.TopK(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != len(wantTop) {
		t.Fatalf("%s: TopK returned %d voxels, P=1 %d", tag, len(top), len(wantTop))
	}
	for i := range top {
		if top[i] != wantTop[i] {
			t.Fatalf("%s: TopK rank %d = %+v, P=1 %+v", tag, i, top[i], wantTop[i])
		}
	}
	sp := ref.Spec()
	for _, box := range []grid.Box{sp.Bounds(), {X0: 1, X1: sp.Gx / 2, Y0: 2, Y1: sp.Gy - 3, T0: 1, T1: sp.Gt - 2}} {
		want, err := ref.BoxMass(box)
		if err != nil {
			t.Fatal(err)
		}
		got, err := u.BoxMass(box)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: BoxMass(%+v) = %x, P=1 %x", tag, box, got, want)
		}
	}
	if a, b := ref.SketchRebuilds(), u.SketchRebuilds(); a != b {
		t.Fatalf("%s: sketch rebuilds %d, P=1 %d", tag, b, a)
	}
	rs, us := ref.Stats(), u.Stats()
	if us.StripApplies < rs.StripApplies {
		t.Fatalf("%s: %d strip applications, fewer than P=1's %d", tag, us.StripApplies, rs.StripApplies)
	}
	rs.StripApplies, us.StripApplies = 0, 0
	rs.Threads, us.Threads = 0, 0
	if rs != us {
		t.Fatalf("%s: stats %+v, P=1 %+v", tag, us, rs)
	}
}

// eventsAhead counts the live events in the buckets the next advance hands
// to its apply: those past the frame offset that starts at the ring's end.
func eventsAhead(u *Updater) int {
	horizon := u.Spec().OT + u.pos.spec.Gt
	n := 0
	for ot, b := range u.live {
		if ot >= horizon {
			n += len(b)
		}
	}
	return n
}

// stripBatchSizes straddle stripMinEvents, so batches run both inline and
// over strips.
var stripBatchSizes = []int{1, 7, stripMinEvents - 1, stripMinEvents, 2*stripMinEvents + 5}

// mutateBatches is one step of the strip scenario: an advance (by less
// than, exactly and more than the hidden layers and the window), a retraction
// of a batch of live events, or the addition of a batch that is mixed
// (inside, just past and far ahead of the window), lies partly or wholly
// off the grid in X, or clusters in one column. Batch sizes come from
// stripBatchSizes.
func mutateBatches(u *Updater, rng *lcg, frontier float64) float64 {
	spec := u.Spec()
	d := spec.Domain
	n := stripBatchSizes[rng.next()%uint64(len(stripBatchSizes))]
	batch := make([]grid.Point, n)
	switch c := rng.next() % 10; {
	case c == 0:
		jumps := []int{1, spec.Ht, spec.Ht + 1, spec.Gt, spec.Gt + 3}
		frontier += float64(jumps[rng.next()%uint64(len(jumps))]) * spec.TRes
		u.AdvanceTo(frontier)
		return frontier
	case c == 1:
		live := u.Live()
		if len(live) < n {
			return frontier
		}
		for i := range batch {
			j := i + int(rng.next()%uint64(len(live)-i))
			live[i], live[j] = live[j], live[i]
			batch[i] = live[i]
		}
		if err := u.Remove(batch...); err != nil {
			panic(err)
		}
		return frontier
	case c == 2: // off the grid in X: wholly beyond either face, or straddling it
		for i := range batch {
			p := streamEvent(rng, d, frontier)
			switch rng.next() % 4 {
			case 0:
				p.X = d.X0 - 2*spec.HS - rng.float()*d.GX
			case 1:
				p.X = d.X0 + d.GX + 2*spec.HS + rng.float()*d.GX
			case 2:
				p.X = d.X0 - rng.float()*spec.HS
			default:
				p.X = d.X0 + d.GX + rng.float()*spec.HS
			}
			batch[i] = p
		}
	case c == 3: // clustered in one column
		x := d.X0 + rng.float()*d.GX
		for i := range batch {
			p := streamEvent(rng, d, frontier)
			p.X = x + 0.2*rng.float()
			batch[i] = p
		}
	default:
		for i := range batch {
			batch[i] = streamEvent(rng, d, frontier)
		}
	}
	u.Add(batch...)
	return frontier
}

// streamMutation adapts the restore tests' generator (one to three events
// per Add, single retractions) to a lockstep step.
func streamMutation(u *Updater, rng *lcg, frontier float64) float64 {
	return mutateStream(u, rng, frontier, 1, true)
}

// TestUpdaterStripsBitwise is the parallel apply's contract: at every strip
// count, whatever the cut, the whole ring, the live set, TopK,
// BoxMass and the sketch's rebuild count are bitwise those of the one-strip
// apply after every mutation — for the existing stream scenario and for
// batch-sized ones, with a compaction after every mutation, and on a grid
// narrower than the strip count.
func TestUpdaterStripsBitwise(t *testing.T) {
	narrow, err := grid.NewSpec(grid.Domain{GX: 2, GY: 12, GT: 10}, 1, 1, 2.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []struct {
		name  string
		spec  grid.Spec
		cfg   UpdaterConfig
		steps int
		m     mutation
		split bool // batches reach stripMinEvents, so some must split
	}{
		{"stream", updaterSpec(t), UpdaterConfig{CompactEvery: 23}, 60, streamMutation, false},
		{"batches", updaterSpec(t), UpdaterConfig{}, 60, mutateBatches, true},
		{"compact-every-1", updaterSpec(t), UpdaterConfig{CompactEvery: 1}, 30, mutateBatches, true},
		{"narrow", narrow, UpdaterConfig{}, 40, mutateBatches, true},
	} {
		t.Run(sc.name, func(t *testing.T) {
			us := newStripUpdaters(t, sc.spec, sc.cfg)
			rng, frontier := lcg(len(sc.name)), sc.spec.Domain.T0+8.0
			for step := 0; step < sc.steps; step++ {
				rng, frontier = lockstep(t, fmt.Sprintf("step %d", step), us, rng, frontier, sc.m)
			}
			ref := us[0].Stats()
			if ref.Ops == 0 || ref.Advances == 0 {
				t.Fatalf("scenario did not exercise the updater: %+v", ref)
			}
			if sc.cfg.CompactEvery > 0 && ref.Compactions == 0 {
				t.Fatalf("scenario never compacted: %+v", ref)
			}
			if sc.split {
				for i, u := range us[1:] {
					if u.Stats().StripApplies == ref.StripApplies {
						t.Fatalf("P=%d applied no event over more than one strip", stripThreads[i+1])
					}
				}
			}
		})
	}
}

// TestUpdaterStripsRestore restores a stream captured mid-way at every
// strip count: each restore rebuilds its hidden layers with the parallel
// replay, and the restored updaters stay bitwise equal through later
// batches, retractions and advances.
func TestUpdaterStripsRestore(t *testing.T) {
	spec := updaterSpec(t)
	cfg := UpdaterConfig{CompactEvery: 41}
	orig, err := NewUpdater(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Release()
	rng := lcg(77)
	frontier := spec.Domain.T0 + 8.0
	for i := 0; i < 12; i++ {
		batch := make([]grid.Point, 2*stripMinEvents)
		for j := range batch {
			batch[j] = streamEvent(&rng, spec.Domain, frontier)
		}
		orig.Add(batch...)
		frontier = mutateStream(orig, &rng, frontier, 2, false)
	}
	if ahead := eventsAhead(orig); ahead == 0 || orig.N() < stripMinEvents {
		t.Fatalf("capture holds %d live events, %d of them past the hidden layers; want populated hidden layers", orig.N(), ahead)
	}
	us := make([]*Updater, len(stripThreads))
	for i, p := range stripThreads {
		st, err := orig.State(nil)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Options.Threads = p
		if us[i], err = RestoreUpdater(st, c); err != nil {
			t.Fatal(err)
		}
		defer us[i].Release()
	}
	expectBitwise(t, "restored at P=1", orig, us[0])
	for i, u := range us[1:] {
		expectSameAsOneStrip(t, fmt.Sprintf("restored P=%d", stripThreads[i+1]), us[0], u)
	}
	for step := 0; step < 40; step++ {
		rng, frontier = lockstep(t, fmt.Sprintf("after restore, step %d", step), us, rng, frontier, mutateBatches)
	}
}

// TestUpdaterStripApplyContract is the clock-free statement of what the
// strip cut costs, on the repository benchmark's shape: a 326x151x42
// window, Hs 13, Ht 4, events inset one bandwidth from every spatial face,
// mostly 512-event batches. The test works out each batch's strip count
// itself — k = max(P, ⌈8·min(box voxels, ring voxels)/stripBytes⌉), so a
// 512-event batch, whose boxes cover more than the ring, is cut into as
// many strips at P=1 as at P=2 — and places the k-1 cuts itself, the j-th
// at the first column where the running count of the batch's box columns
// reaches j/k of their total. Every batch applies each event once, plus
// once more for every cut its box spans, at P=1 and at P=2.
func TestUpdaterStripApplyContract(t *testing.T) {
	spec, err := grid.NewSpec(grid.Domain{GX: 326, GY: 151, GT: 42}, 1, 1, 13, 4)
	if err != nil {
		t.Fatal(err)
	}
	ext := spec // the updater's boxes span the ring's Gt+Ht layers
	ext.Gt += ext.Ht
	us := make([]*Updater, 2)
	for i := range us {
		if us[i], err = NewUpdater(spec, UpdaterConfig{Options: Options{Threads: i + 1}}); err != nil {
			t.Fatal(err)
		}
		defer us[i].Release()
	}
	rng := lcg(13)
	d := spec.Domain
	var crossings, events, wide int64
	for b, n := range []int{512, 16, 512, 100, 512, 512, 512, 512} {
		pts := make([]grid.Point, n)
		for i := range pts {
			pts[i] = grid.Point{
				X: d.X0 + spec.HS + rng.float()*(d.GX-2*spec.HS),
				Y: d.Y0 + spec.HS + rng.float()*(d.GY-2*spec.HS),
				T: d.T0 + rng.float()*d.GT,
			}
		}
		cover := make([]int, spec.Gx)
		total, vox := 0, 0
		for _, p := range pts {
			box := ext.InfluenceBox(p)
			for X := box.X0; X <= box.X1; X++ {
				cover[X]++
			}
			nx, ny, nt := box.Dims()
			total += nx
			vox += nx * ny * nt
		}
		for i, u := range us {
			k := max(i+1, (8*min(vox, ext.Voxels())+stripBytes-1)/stripBytes)
			// The test's own cuts: no two on one column, and each on a
			// column some box covers, short of the last covered one.
			var cuts []int
			run := 0
			for X, c := range cover {
				run += c
				if j := len(cuts) + 1; j < k && c > 0 && run < total && run*k >= total*j {
					cuts = append(cuts, X+1)
				}
			}
			if len(cuts) != k-1 {
				t.Fatalf("batch %d: %d cuts, want %d", b, len(cuts), k-1)
			}
			var cross int64
			for _, p := range pts {
				box := ext.InfluenceBox(p)
				for _, c := range cuts {
					if box.X0 < c && c <= box.X1 {
						cross++
					}
				}
			}
			before := u.Stats().StripApplies
			u.Add(pts...)
			if got := u.Stats().StripApplies - before; got != int64(n)+cross {
				t.Fatalf("batch %d: %d strip applications at P=%d, want %d events + %d crossings of the cuts %v",
					b, got, i+1, n, cross, cuts)
			}
			if n == 512 && i == 0 {
				if k != 9 {
					t.Fatalf("batch %d: %d strips, want 9", b, k)
				}
				crossings += cross
				wide += int64(n)
			}
		}
		events += int64(n)
	}
	for i, u := range us {
		if st := u.Stats(); st.Ops != events {
			t.Fatalf("P=%d: %d ops, want %d events", i+1, st.Ops, events)
		}
	}
	// An Hs 13 box is 27 columns wide, so it spans 26 of the ~300 column
	// boundaries the events cover: with 9 strips' 8 cuts, about 0.7 per event.
	per := float64(crossings) / float64(wide)
	t.Logf("512-event batches, 9 strips: %.3f strip applications per event", 1+per)
	if per < 0.6 || per > 0.85 {
		t.Fatalf("%.3f cut crossings per event, want about 0.7", per)
	}
}

// TestUpdaterStripWorkersExit: the strip workers of a bulk apply and of an
// advance's zeroing never outlive the call, whether the batch splits, is empty or
// lies wholly off the grid.
func TestUpdaterStripWorkersExit(t *testing.T) {
	settled := func() int {
		// A worker may still be returning after it signalled completion;
		// wait (boundedly) for the count to stop falling.
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				return n
			}
			n = m
		}
		return n
	}
	base := settled()
	spec := updaterSpec(t)
	u, err := NewUpdater(spec, UpdaterConfig{Options: Options{Threads: 4}})
	if err != nil {
		t.Fatal(err)
	}
	rng := lcg(3)
	pts := make([]grid.Point, 3*stripMinEvents)
	for i := range pts {
		pts[i] = streamEvent(&rng, spec.Domain, spec.Domain.T0+8)
	}
	off := make([]grid.Point, 3*stripMinEvents)
	for i := range off {
		off[i] = grid.Point{X: -100 - float64(i), Y: 5, T: 8}
	}
	for _, op := range []struct {
		name string
		do   func()
	}{
		{"add", func() { u.Add(pts...) }},
		{"add empty", func() { u.Add() }},
		{"add off-grid", func() { u.Add(off...) }},
		{"remove", func() {
			if err := u.Remove(pts[:2*stripMinEvents]...); err != nil {
				t.Fatal(err)
			}
		}},
		{"remove off-grid", func() {
			if err := u.Remove(off...); err != nil {
				t.Fatal(err)
			}
		}},
		{"compact", u.Compact},
		{"advance", func() { u.AdvanceBy(1) }},
		{"advance past the window", func() { u.AdvanceBy(spec.Gt + 2) }},
		{"release", u.Release},
	} {
		op.do()
		if n := settled(); n != base {
			t.Fatalf("after %s: %d goroutines, %d before the updater existed", op.name, n, base)
		}
	}
	if st := u.Stats(); st.StripApplies <= int64(len(pts)) {
		t.Fatalf("no batch was split: %+v", st)
	}
}

// wrappedBars counts the events of pts whose bar, over the ring's Gt+Ht
// layers, crosses the ring's physical wrap: the apply splits their rows.
func wrappedBars(u *Updater, pts []grid.Point) int {
	n := 0
	for _, p := range pts {
		g := u.pos.geom(p)
		if lo, hi := barBounds(&u.pos, p, g, g.box); lo <= hi && u.ring.PhysOf(lo) > u.ring.PhysOf(hi) {
			n++
		}
	}
	return n
}

// TestUpdaterForcedStripsBitwise drives the cut at strip counts the window
// size would not pick — 1, 2, 3, 17 and one strip per column — with two
// workers, through a script of strip-sized batches whose bars cross the
// ring's physical wrap, a retraction, a forced compaction, advances that
// apply events ahead of the window, and a State/RestoreUpdater round trip
// whose live set spans several prepass chunks. After every step each
// window, live set and analytics answer is bitwise the one-strip
// updater's.
func TestUpdaterForcedStripsBitwise(t *testing.T) {
	spec := updaterSpec(t)
	ks := []int{1, 2, 3, 17, spec.Gx}
	cfgOf := func(k, p int) UpdaterConfig {
		return UpdaterConfig{Options: Options{Threads: p}, strips: k}
	}
	ref, err := NewUpdater(spec, cfgOf(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	us := make([]*Updater, len(ks))
	for i, k := range ks {
		if us[i], err = NewUpdater(spec, cfgOf(k, 2)); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		ref.Release()
		for _, u := range us {
			u.Release()
		}
	}()
	step := func(tag string, do func(u *Updater)) {
		t.Helper()
		do(ref)
		for i, u := range us {
			do(u)
			expectSameAsOneStrip(t, fmt.Sprintf("%s, k=%d", tag, ks[i]), ref, u)
		}
	}
	rng := lcg(41)
	frontier := spec.Domain.T0 + 8.0
	batch := func(n int) []grid.Point {
		pts := make([]grid.Point, n)
		for i := range pts {
			pts[i] = streamEvent(&rng, spec.Domain, frontier)
		}
		return pts
	}
	wrapped := 0
	for i := 0; i < 6; i++ {
		pts := batch(stripMinEvents + 13)
		wrapped += wrappedBars(ref, pts)
		step(fmt.Sprintf("add %d", i), func(u *Updater) { u.Add(pts...) })
		frontier += float64(1+i%spec.Ht) * spec.TRes
		step(fmt.Sprintf("advance %d", i), func(u *Updater) { u.AdvanceTo(frontier) })
	}
	if wrapped == 0 {
		t.Fatal("no bar crossed the ring's physical wrap")
	}
	gone := ref.Live()[:stripMinEvents]
	step("remove", func(u *Updater) {
		if err := u.Remove(gone...); err != nil {
			t.Fatal(err)
		}
	})
	step("compact", func(u *Updater) { u.Compact() })
	for ref.N() <= 2*prepChunk {
		pts := batch(500)
		step("fill", func(u *Updater) { u.Add(pts...) })
	}
	st, err := ref.State(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := RestoreUpdater(st, cfgOf(1, 1)); err != nil {
		t.Fatal(err)
	} else {
		ref.Release()
		ref = r
	}
	for i, k := range ks {
		st, err := us[i].State(nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RestoreUpdater(st, cfgOf(k, 2))
		if err != nil {
			t.Fatal(err)
		}
		us[i].Release()
		us[i] = r
		expectSameAsOneStrip(t, fmt.Sprintf("restored, k=%d", k), ref, r)
	}
	step("compact after restore", func(u *Updater) { u.Compact() })
	for i := 0; i < 4; i++ {
		frontier += float64(spec.Ht+1) * spec.TRes
		step(fmt.Sprintf("advance after restore %d", i), func(u *Updater) { u.AdvanceTo(frontier) })
	}
	if st := ref.Stats(); st.AdvanceReapplied == 0 || st.Compactions == 0 {
		t.Fatalf("after the restore, no advance applied events ahead of the window or none compacted: %+v", st)
	}
}

// TestUpdaterGenericKernels drives the strips' interface-dispatch fills —
// fillDiskCols's generic branch and fillBar's non-polynomial branch — with
// kernels that do not specialize: a batch past stripMinEvents at two
// workers, a removal, an advance and a forced compaction. After each step
// the window matches the dense oracle's PB-SYM estimate of the live set
// with the same kernels to 1e-9, and an updater cut into three strips
// matches the one-strip updater bitwise. The reference is the oracle, not
// Estimate, because the batch span engine runs the same fills: a broken
// generic branch would break both alike.
func TestUpdaterGenericKernels(t *testing.T) {
	spec := updaterSpec(t)
	for _, kp := range []struct {
		sk kernel.Spatial
		tk kernel.Temporal
	}{
		{kernel.Cone2D{}, kernel.Triangle1D{}},
		{kernel.NewTruncGauss2D(1.0 / 3), kernel.NewTruncGauss1D(1.0 / 3)},
	} {
		opt := Options{Threads: 2, Spatial: kp.sk, Temporal: kp.tk}
		name := kp.sk.Name() + "/" + kp.tk.Name()
		var us [2]*Updater
		for i, k := range []int{1, 3} {
			u, err := NewUpdater(spec, UpdaterConfig{Options: opt, strips: k})
			if err != nil {
				t.Fatal(err)
			}
			defer u.Release()
			us[i] = u
		}
		if us[0].pos.skFast || us[0].pos.tkFast {
			t.Fatalf("%s unexpectedly specialized", name)
		}
		step := func(tag string, do func(u *Updater)) {
			t.Helper()
			tag = name + ", " + tag
			for _, u := range us {
				do(u)
			}
			expectSameAsOneStrip(t, tag+", k=3", us[0], us[1])
			batch, err := denseEstimate(AlgPBSYM, us[0].Live(), us[0].Spec(), Options{Threads: 1, Spatial: kp.sk, Temporal: kp.tk})
			if err != nil {
				t.Fatal(err)
			}
			defer batch.Grid.Release()
			if batch.Grid.Sum() <= 0 {
				t.Fatalf("%s: empty batch grid", tag)
			}
			snap, err := us[0].Snapshot(nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range snap.Data {
				if d := math.Abs(snap.Data[i] - batch.Grid.Data[i]); d > 1e-9 {
					t.Fatalf("%s: voxel %d differs from batch by %g", tag, i, d)
				}
			}
		}
		rng := lcg(43)
		frontier := spec.Domain.T0 + 8.0
		pts := make([]grid.Point, 2*stripMinEvents)
		for i := range pts {
			pts[i] = streamEvent(&rng, spec.Domain, frontier)
		}
		step("add", func(u *Updater) { u.Add(pts...) })
		gone := us[0].Live()[:stripMinEvents/2]
		step("remove", func(u *Updater) {
			if err := u.Remove(gone...); err != nil {
				t.Fatal(err)
			}
		})
		step("advance", func(u *Updater) { u.AdvanceBy(2) })
		step("compact", func(u *Updater) { u.Compact() })
		if us[1].Stats().StripApplies <= us[0].Stats().StripApplies {
			t.Fatalf("%s: three strips made no more strip applications than one", name)
		}
	}
}

// TestUpdaterPrepassBounded: a compaction and a restore hand the whole
// live set — over four chunks of it — to the apply, and the prepass holds
// one chunk at a time: what each allocates beyond its own live-set copies
// stays under one chunk of prepass buffers, and none is kept afterwards.
// A prepass sized to the whole input would allocate four times that.
func TestUpdaterPrepassBounded(t *testing.T) {
	spec := updaterSpec(t)
	cfg := UpdaterConfig{Options: Options{Threads: 2}}
	u, err := NewUpdater(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Release()
	rng := lcg(5)
	d := spec.Domain
	for u.N() < 4*prepChunk+100 {
		pts := make([]grid.Point, 512)
		for i := range pts {
			// Inside the window, so every event stays live and reaches it.
			pts[i] = grid.Point{X: d.X0 + rng.float()*d.GX, Y: d.Y0 + rng.float()*d.GY, T: d.T0 + rng.float()*d.GT}
		}
		u.Add(pts...)
	}
	n := u.N()
	dxy, dt := 2*spec.Hs+1, 2*spec.Ht+1
	chunk := prepChunk * (int(unsafe.Sizeof(prepped{})) + 8*(3*dxy+dt))
	allocated := func(do func()) int {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		do()
		runtime.ReadMemStats(&after)
		return int(after.TotalAlloc - before.TotalAlloc)
	}
	kept := func(tag string, u *Updater) {
		t.Helper()
		if cap(u.recs)+cap(u.ys)+cap(u.bars) != 0 {
			t.Fatalf("%s kept its prepass buffers: %d records, %d Y-row entries, %d bar entries",
				tag, cap(u.recs), cap(u.ys), cap(u.bars))
		}
	}
	// The compaction copies the live set twice (liveEvent, then Point).
	if got, limit := allocated(u.Compact), chunk+n*int(unsafe.Sizeof(liveEvent{})+unsafe.Sizeof(grid.Point{}))+1<<16; got > limit {
		t.Fatalf("compacting %d live events allocated %d bytes, more than one %d-byte prepass chunk allows (%d)", n, got, chunk, limit)
	}
	kept("compact", u)
	st, err := u.State(nil)
	if err != nil {
		t.Fatal(err)
	}
	var r *Updater
	// The restore copies the window into its ring and files the live set
	// in its buckets, which appending copies as they grow.
	limit := chunk + int(grid.RingBytes(spec)) + 4*n*int(unsafe.Sizeof(liveEvent{})) + 1<<16
	if got := allocated(func() { r, err = RestoreUpdater(st, cfg) }); err != nil {
		t.Fatal(err)
	} else if got > limit {
		t.Fatalf("restoring %d live events allocated %d bytes, more than one %d-byte prepass chunk allows (%d)", n, got, chunk, limit)
	}
	defer r.Release()
	kept("restore", r)
}
