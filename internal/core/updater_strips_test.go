package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/grid"
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
	if len(ref.future) != len(u.future) {
		t.Fatalf("%s: future lists differ in size: %d vs %d", tag, len(ref.future), len(u.future))
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
	if len(orig.future) == 0 || orig.N() < stripMinEvents {
		t.Fatalf("capture holds %d live and %d future events; want populated hidden layers", orig.N(), len(orig.future))
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
// parallel apply costs, on the repository benchmark's shape: a 326x151x42
// window, Hs 13, Ht 4, events inset one bandwidth from every spatial face,
// 512-event batches. At two strips every batch applies each event once,
// plus once more for every event whose box spans the cut — the cut placed
// at the column where the batch's box columns reach half their total. At
// one strip the strip applications are exactly the Ops.
func TestUpdaterStripApplyContract(t *testing.T) {
	spec, err := grid.NewSpec(grid.Domain{GX: 326, GY: 151, GT: 42}, 1, 1, 13, 4)
	if err != nil {
		t.Fatal(err)
	}
	const batch, batches = 512, 6
	one, err := NewUpdater(spec, UpdaterConfig{Options: Options{Threads: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Release()
	two, err := NewUpdater(spec, UpdaterConfig{Options: Options{Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer two.Release()
	rng := lcg(13)
	d := spec.Domain
	var spanning, events int64
	for b := 0; b < batches; b++ {
		pts := make([]grid.Point, batch)
		for i := range pts {
			pts[i] = grid.Point{
				X: d.X0 + spec.HS + rng.float()*(d.GX-2*spec.HS),
				Y: d.Y0 + spec.HS + rng.float()*(d.GY-2*spec.HS),
				T: d.T0 + rng.float()*d.GT,
			}
		}
		// The test's own cut: the first column at which the running count
		// of box columns reaches half of the batch's total.
		cover := make([]int, spec.Gx)
		total := 0
		for _, p := range pts {
			box := spec.InfluenceBox(p)
			for X := box.X0; X <= box.X1; X++ {
				cover[X]++
			}
			total += box.X1 - box.X0 + 1
		}
		cut, run := 0, 0
		for X, c := range cover {
			if run += c; 2*run >= total {
				cut = X + 1
				break
			}
		}
		var span int64
		for _, p := range pts {
			if box := spec.InfluenceBox(p); box.X0 < cut && cut <= box.X1 {
				span++
			}
		}
		before := two.Stats().StripApplies
		two.Add(pts...)
		one.Add(pts...)
		if got := two.Stats().StripApplies - before; got != batch+span {
			t.Fatalf("batch %d: %d strip applications at P=2, want %d events + %d spanning the cut at column %d",
				b, got, batch, span, cut)
		}
		spanning += span
		events += batch
	}
	if st := one.Stats(); st.StripApplies != st.Ops || st.Ops != events {
		t.Fatalf("P=1: %d strip applications, %d ops, %d events; want all equal", st.StripApplies, st.Ops, events)
	}
	// Hs 13 boxes are 27 columns wide over 300 inset ones: about 9 % of
	// the events straddle the cut.
	if share := float64(spanning) / float64(events); share < 0.06 || share > 0.12 {
		t.Fatalf("%.3f of the events span the cut, want about 0.09", share)
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
