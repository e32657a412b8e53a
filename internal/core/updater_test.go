package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/grid"
)

// updaterSpec is a window spec deliberately shorter than the event stream:
// GT is the window length, events keep arriving past it.
func updaterSpec(t *testing.T) grid.Spec {
	t.Helper()
	s, err := grid.NewSpec(grid.Domain{GX: 20, GY: 16, GT: 16}, 1, 1, 3.2, 2.4)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Compact forces a full re-estimate of the window, resetting the residual
// bound to zero.
func (u *Updater) Compact() {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.compact()
}

// lcg is a tiny deterministic generator for op interleavings.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 33)
}

func (r *lcg) float() float64 { return float64(r.next()%1_000_000) / 1_000_000 }

// streamEvent draws an event near time frontier (so sliding windows stay
// populated), inside the spatial domain. One in six lands well ahead of
// the window — beyond the ring's hidden layers, by up to more than a window
// length — so every scenario exercises the advance's apply of such events.
func streamEvent(r *lcg, d grid.Domain, frontier float64) grid.Point {
	p := grid.Point{
		X: d.X0 + r.float()*d.GX,
		Y: d.Y0 + r.float()*d.GY,
		T: frontier - 4 + r.float()*8, // straddles the frontier both ways
	}
	if r.next()%6 == 0 {
		p.T = frontier + 4 + r.float()*20
	}
	return p
}

// checkUpdater asserts the acceptance criterion: the updater's normalized
// window agrees with a fresh batch Estimate over the surviving events to
// <= 1e-9 on every voxel — and, independently, that the raw (unnormalized)
// window agrees with a batch over every event ever retained by the mirror,
// which proves expired events were exactly inert on the surviving layers.
func checkUpdater(t *testing.T, tag string, u *Updater, mirror []grid.Point) {
	t.Helper()
	spec := u.Spec()
	live := u.Live()

	batch, err := Estimate(AlgPBSYM, live, spec, Options{Threads: 1})
	if err != nil {
		t.Fatalf("%s: batch: %v", tag, err)
	}
	defer batch.Grid.Release()
	snap, err := u.Snapshot(nil)
	if err != nil {
		t.Fatalf("%s: snapshot: %v", tag, err)
	}
	for i := range snap.Data {
		if d := math.Abs(snap.Data[i] - batch.Grid.Data[i]); d > 1e-9 {
			t.Fatalf("%s: normalized voxel %d differs from batch by %g (updater %g, batch %g)",
				tag, i, d, snap.Data[i], batch.Grid.Data[i])
		}
	}

	// The incremental analytics sketch must agree with the O(G) snapshot
	// scans at every interleaving point: TopK selections exactly (the
	// candidate values are bitwise the snapshot's), BoxMass to <= 1e-9.
	top, err := u.TopK(7)
	if err != nil {
		t.Fatalf("%s: sketch TopK: %v", tag, err)
	}
	wantTop := snap.TopK(7)
	if len(top) != len(wantTop) {
		t.Fatalf("%s: sketch TopK returned %d voxels, snapshot %d", tag, len(top), len(wantTop))
	}
	for i := range wantTop {
		if top[i] != wantTop[i] {
			t.Fatalf("%s: sketch TopK rank %d = %+v, snapshot %+v", tag, i, top[i], wantTop[i])
		}
	}
	for _, box := range []grid.Box{spec.Bounds(), {X0: 2, X1: 9, Y0: 1, Y1: 7, T0: 3, T1: spec.Gt - 2}} {
		got, err := u.BoxMass(box)
		if err != nil {
			t.Fatalf("%s: sketch BoxMass: %v", tag, err)
		}
		want := snap.BoxMass(box)
		if d := math.Abs(got - want); d > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("%s: sketch BoxMass(%+v) = %g, snapshot %g (diff %g)", tag, box, got, want, d)
		}
	}

	// NormN=1 makes the batch fold exactly the updater's unnormalized
	// 1/(hs^2*ht) weight, so the raw volumes are directly comparable.
	rawBatch, err := Estimate(AlgPBSYM, mirror, spec, Options{Threads: 1, NormN: 1})
	if err != nil {
		t.Fatalf("%s: raw batch: %v", tag, err)
	}
	defer rawBatch.Grid.Release()
	raw, err := u.Ring().Snapshot(nil)
	if err != nil {
		t.Fatalf("%s: raw snapshot: %v", tag, err)
	}
	for i := range raw.Data {
		if d := math.Abs(raw.Data[i] - rawBatch.Grid.Data[i]); d > 1e-9 {
			t.Fatalf("%s: raw voxel %d differs from all-events batch by %g", tag, i, d)
		}
	}
}

// runUpdaterScenario drives a deterministic interleaving of Add, Remove and
// AdvanceTo (including advances larger than Ht and larger than Gt) and
// checks agreement with batch estimation after every mutation.
func runUpdaterScenario(t *testing.T, cfg UpdaterConfig, seed lcg) *Updater {
	t.Helper()
	spec := updaterSpec(t)
	u, err := NewUpdater(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := seed
	var mirror []grid.Point // every event added and not removed (expiry kept)
	frontier := spec.Domain.T0 + 8.0

	// Advance steps on both sides of the hidden layers' depth (Ht=3) and of the
	// window length (Gt=16).
	advances := []int{1, spec.Ht, spec.Ht + 1, 2, spec.Gt, 1, spec.Gt + 3}
	step := 0
	for op := 0; op < 36; op++ {
		switch choice := rng.next() % 10; {
		case choice < 5: // add a small batch
			k := int(rng.next()%4) + 1
			batch := make([]grid.Point, k)
			for i := range batch {
				batch[i] = streamEvent(&rng, spec.Domain, frontier)
			}
			u.Add(batch...)
			mirror = append(mirror, batch...)
		case choice < 7: // remove a live event (when any)
			live := u.Live()
			if len(live) == 0 {
				continue
			}
			victim := live[int(rng.next())%len(live)]
			if err := u.Remove(victim); err != nil {
				t.Fatalf("op %d: remove live event: %v", op, err)
			}
			for i, p := range mirror {
				if p == victim {
					mirror = append(mirror[:i], mirror[i+1:]...)
					break
				}
			}
		default: // slide the window
			k := advances[step%len(advances)]
			step++
			_, t1 := u.Window()
			adv, _ := u.AdvanceTo(t1 + float64(k-1)*spec.TRes)
			if adv != k {
				t.Fatalf("op %d: advanced %d layers, want %d", op, adv, k)
			}
			frontier = t1 + float64(k-1)*spec.TRes
		}
		checkUpdater(t, "op", u, mirror)
	}
	return u
}

func TestUpdaterMatchesBatch(t *testing.T) {
	u := runUpdaterScenario(t, UpdaterConfig{}, 1)
	st := u.Stats()
	if st.Ops == 0 || st.Advances == 0 {
		t.Fatalf("scenario did not exercise the updater: %+v", st)
	}
	u.Release()
}

// TestUpdaterCompactionBoundaries forces frequent compactions and asserts
// the estimate stays exact across every boundary.
func TestUpdaterCompactionBoundaries(t *testing.T) {
	u := runUpdaterScenario(t, UpdaterConfig{CompactEvery: 5}, 2)
	st := u.Stats()
	if st.Compactions == 0 {
		t.Fatalf("CompactEvery=5 scenario never compacted: %+v", st)
	}
	if st.ResidualBound < 0 {
		t.Fatalf("negative residual bound: %+v", st)
	}
	u.Release()
}

// TestUpdaterResidualDrivenCompaction: an absurdly tight residual limit
// must trigger compaction on its own.
func TestUpdaterResidualDrivenCompaction(t *testing.T) {
	spec := updaterSpec(t)
	u, err := NewUpdater(spec, UpdaterConfig{ResidualLimit: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Release()
	u.Add(testPoints(50, spec.Domain, 4)...)
	if st := u.Stats(); st.Compactions == 0 {
		t.Fatalf("tight residual limit never compacted: %+v", st)
	}
	if st := u.Stats(); st.ResidualBound != 0 {
		t.Fatalf("residual bound not reset by compaction: %+v", st)
	}
}

// TestUpdaterAddRemoveCancels: retraction subtracts the bitwise-identical
// contribution, so add-then-remove leaves at most cancellation rounding.
func TestUpdaterAddRemoveCancels(t *testing.T) {
	spec := updaterSpec(t)
	u, err := NewUpdater(spec, UpdaterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Release()
	pts := testPoints(80, spec.Domain, 11)
	u.Add(pts...)
	if err := u.Remove(pts...); err != nil {
		t.Fatal(err)
	}
	if u.N() != 0 {
		t.Fatalf("N = %d after full retraction, want 0", u.N())
	}
	raw, err := u.Ring().Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range raw.Data {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("voxel %d = %g after full retraction, want ~0", i, v)
		}
	}
	// A normalized snapshot of an empty window is exactly zero.
	snap, err := u.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range snap.Data {
		if v != 0 {
			t.Fatalf("normalized voxel %d = %g for empty window, want 0", i, v)
		}
	}
}

// TestUpdaterRemoveUnknownIsAtomic: removing an event that is not live
// fails without mutating anything, even when other requested events are
// live.
func TestUpdaterRemoveUnknownIsAtomic(t *testing.T) {
	spec := updaterSpec(t)
	u, err := NewUpdater(spec, UpdaterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Release()
	pts := testPoints(20, spec.Domain, 13)
	u.Add(pts...)
	before, err := u.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	ghost := grid.Point{X: -1000, Y: -1000, T: -1000}
	if err := u.Remove(pts[0], ghost); err == nil {
		t.Fatal("removing an unknown event succeeded")
	} else if !strings.Contains(err.Error(), "not in the live window") {
		t.Fatalf("unexpected error: %v", err)
	}
	if u.N() != len(pts) {
		t.Fatalf("failed remove mutated N: %d, want %d", u.N(), len(pts))
	}
	after, err := u.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatalf("failed remove mutated voxel %d", i)
		}
	}
}

// TestUpdaterWindowTracksAdvance: AdvanceTo moves by whole voxels, reports
// the advance, never moves backward, and expires out-of-reach events.
func TestUpdaterWindowTracksAdvance(t *testing.T) {
	spec := updaterSpec(t)
	u, err := NewUpdater(spec, UpdaterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Release()
	// One early event that must expire once the window passes it, and one
	// late event that stays.
	early := grid.Point{X: 5, Y: 5, T: 1}
	late := grid.Point{X: 10, Y: 8, T: 30}
	u.Add(early, late)

	if adv, _ := u.AdvanceTo(spec.Domain.T0); adv != 0 {
		t.Fatalf("backward AdvanceTo moved the window by %d", adv)
	}
	// Hostile targets must no-op, not corrupt the frame offset: huge
	// positive and negative values exceed float64's integer-exact range
	// (a negative overflow would wrap the int conversion to a huge
	// positive advance), and NaN fails every comparison.
	for _, bad := range []float64{1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN()} {
		if adv, exp := u.AdvanceTo(bad); adv != 0 || exp != 0 {
			t.Fatalf("AdvanceTo(%g) = (%d, %d), want no-op", bad, adv, exp)
		}
	}
	if sp := u.Spec(); sp.OT != 0 {
		t.Fatalf("hostile AdvanceTo corrupted OT: %d", sp.OT)
	}
	adv, expired := u.AdvanceTo(33) // top layer 33: advance by 18 > Gt
	if adv != 18 {
		t.Fatalf("advanced %d layers, want 18", adv)
	}
	if expired != 1 {
		t.Fatalf("expired %d events, want 1 (the early event)", expired)
	}
	t0, t1 := u.Window()
	if t0 != 18 || t1 != 34 {
		t.Fatalf("window = [%g, %g), want [18, 34)", t0, t1)
	}
	if sp := u.Spec(); sp.OT != 18 || sp.Gt != spec.Gt {
		t.Fatalf("spec OT/Gt = %d/%d, want 18/%d", sp.OT, sp.Gt, spec.Gt)
	}
	live := u.Live()
	if len(live) != 1 || live[0] != late {
		t.Fatalf("live = %v, want [%v]", live, late)
	}
	checkUpdater(t, "after advance", u, []grid.Point{early, late})
}

// TestUpdaterSketchBudget: the analytics sketch attaches lazily on the
// first TopK/BoxMass, is charged to the updater's budget, and reports the
// budget failure instead of scanning when it cannot fit.
func TestUpdaterSketchBudget(t *testing.T) {
	spec := updaterSpec(t)
	tight := grid.NewBudget(WindowBytes(spec)) // room for the ring only
	u, err := NewUpdater(spec, UpdaterConfig{Options: Options{Budget: tight}})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Release()
	u.Add(testPoints(10, spec.Domain, 3)...)
	if _, err := u.TopK(5); err == nil {
		t.Fatal("sketch fit in a window-only budget")
	}
	if u.SketchRebuilds() != 0 {
		t.Fatal("failed sketch enable left a rebuild count")
	}

	roomy := grid.NewBudget(WindowBytes(spec) + grid.RingSketchBytes(spec))
	u2, err := NewUpdater(spec, UpdaterConfig{Options: Options{Budget: roomy}})
	if err != nil {
		t.Fatal(err)
	}
	u2.Add(testPoints(10, spec.Domain, 3)...)
	if _, err := u2.TopK(5); err != nil {
		t.Fatalf("sketch did not fit in an exact budget: %v", err)
	}
	if got, want := roomy.Used(), WindowBytes(spec)+grid.RingSketchBytes(spec); got != want {
		t.Fatalf("budget used = %d, want %d", got, want)
	}
	if u2.SketchRebuilds() == 0 {
		t.Fatal("first analytics query rebuilt no blocks")
	}
	u2.Release()
	if roomy.Used() != 0 {
		t.Fatalf("budget used after Release = %d, want 0 (sketch charge leaked)", roomy.Used())
	}
}

// TestUpdaterBudget: the window — a ring of Gt visible and Ht hidden
// layers — is charged to the configured budget, to the byte, and released.
func TestUpdaterBudget(t *testing.T) {
	spec := updaterSpec(t)
	want := spec.Bytes() + int64(spec.Gx*spec.Gy*spec.Ht)*8
	if WindowBytes(spec) != want {
		t.Fatalf("WindowBytes = %d, want Gt+Ht layers = %d", WindowBytes(spec), want)
	}
	if _, err := NewUpdater(spec, UpdaterConfig{Options: Options{Budget: grid.NewBudget(want - 1)}}); err == nil {
		t.Fatal("updater fit in a budget one byte short of its window")
	}
	b := grid.NewBudget(want)
	u, err := NewUpdater(spec, UpdaterConfig{Options: Options{Budget: b}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Used() != want {
		t.Fatalf("budget used = %d, want %d", b.Used(), want)
	}
	if _, err := NewUpdater(spec, UpdaterConfig{Options: Options{Budget: b}}); err == nil {
		t.Fatal("second updater fit in a one-window budget")
	}
	if b.Used() != want {
		t.Fatalf("failed create left %d bytes charged, want %d", b.Used(), want)
	}
	// A snapshot needs a second grid: it must fail under this budget.
	if _, err := u.Snapshot(b); !errors.Is(err, grid.ErrMemoryBudget) {
		t.Fatalf("snapshot in a full one-window budget: want ErrMemoryBudget, got %v", err)
	}
	if b.Used() != want {
		t.Fatalf("failed snapshot left %d bytes charged, want %d", b.Used(), want)
	}
	u.Release()
	if b.Used() != 0 {
		t.Fatalf("budget used after Release = %d, want 0", b.Used())
	}
}

// advanceBy slides the window by k layers and returns how many event
// applications the advance performed and what its expiry step walked.
func advanceBy(u *Updater, k int) (reapplied, walked int64) {
	before := u.Stats()
	u.AdvanceBy(k)
	after := u.Stats()
	return after.AdvanceReapplied - before.AdvanceReapplied, after.ExpiryWalked - before.ExpiryWalked
}

// reachesNewLayers counts the events whose temporal support contains the
// center of one of the k ring layers (visible or hidden) an advance has
// just brought into reach — spec is the window after it.
func reachesNewLayers(spec grid.Spec, k int, events []grid.Point) int64 {
	end := spec.Gt + spec.Ht
	var n int64
	for _, p := range events {
		for T := max(end-k, 0); T < end; T++ {
			if math.Abs(spec.CenterT(T)-p.T) <= spec.HT {
				n++
				break
			}
		}
	}
	return n
}

// TestUpdaterAdvanceWorkContract is the clock-free statement of what a
// window advance costs. On a time-ordered stream of the repository
// benchmark's shape (events arrive inside the window; the window moves one
// layer whenever the next batch reaches past its end) an advance applies
// no event at all — the hidden layer that enters the window is already
// filled — and every event is applied exactly once over the stream's life.
// With events seeded ahead of the window, an advance applies exactly those
// whose support reaches a layer that has just come into reach of the
// ring's visible and hidden layers. Every advance's expiry step visits the
// live expiry buckets and the events it expires.
func TestUpdaterAdvanceWorkContract(t *testing.T) {
	spec, err := grid.NewSpec(grid.Domain{GX: 33, GY: 15, GT: 21}, 1, 1, 2.6, 2)
	if err != nil {
		t.Fatal(err)
	}
	const batch, events = 16, 4000
	span := 4 * spec.Domain.GT // the stream covers four window lengths
	for _, ahead := range []int{0, 40} {
		u, err := NewUpdater(spec, UpdaterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		rng := lcg(21)
		var seeded []grid.Point
		for i := 0; i < ahead; i++ {
			seeded = append(seeded, grid.Point{
				X: rng.float() * spec.Domain.GX,
				Y: rng.float() * spec.Domain.GY,
				T: spec.Domain.GT + rng.float()*(span-spec.Domain.GT),
			})
		}
		u.Add(seeded...)
		ingested, advances := int64(len(seeded)), 0
		var wantReapplied, walkedAll, liveAll int64
		for i := 0; i < events; i += batch {
			pts := make([]grid.Point, batch)
			for j := range pts {
				pts[j] = grid.Point{
					X: rng.float() * spec.Domain.GX,
					Y: rng.float() * spec.Domain.GY,
					T: span * float64(i+j) / events,
				}
			}
			for _, t1 := u.Window(); pts[batch-1].T >= t1; _, t1 = u.Window() {
				live := u.Live()
				reapplied, walked := advanceBy(u, 1)
				want := reachesNewLayers(u.Spec(), 1, live)
				if ahead == 0 && want != 0 {
					t.Fatalf("time-ordered script has %d events ahead of the window", want)
				}
				if reapplied != want {
					t.Fatalf("ahead=%d advance %d applied %d events, want %d", ahead, advances, reapplied, want)
				}
				buckets := make(map[int]bool)
				for _, p := range live {
					buckets[spec.ExpiryOT(p.T)] = true
				}
				if expired := len(live) - u.N(); walked != int64(expired+len(buckets)) {
					t.Fatalf("ahead=%d advance %d: expiry walked %d, want %d expired + %d buckets of %d live events",
						ahead, advances, walked, expired, len(buckets), len(live))
				}
				wantReapplied += want
				advances++
			}
			u.Add(pts...)
			ingested += batch
		}
		if advances < 3*spec.Gt {
			t.Fatalf("script advanced only %d layers", advances)
		}
		// A one-layer advance expires about a layer's share of the live set
		// and visits about Gt+Ht buckets.
		if 10*walkedAll > liveAll {
			t.Fatalf("ahead=%d: expiry walked %d over advances that held %d live events", ahead, walkedAll, liveAll)
		}
		if ahead > 0 && wantReapplied < int64(ahead) {
			t.Fatalf("the %d seeded events were applied only %d times by advances", ahead, wantReapplied)
		}
		st := u.Stats()
		if st.AdvanceReapplied != wantReapplied || st.Ops != ingested+wantReapplied {
			t.Fatalf("ahead=%d: stats %+v, want AdvanceReapplied %d and Ops %d", ahead, st, wantReapplied, ingested+wantReapplied)
		}
		u.Release()
	}
}

// TestUpdaterFutureEvents walks events at every position relative to the
// window — inside it, past its end but inside the hidden layers, and
// beyond them — through advances shorter than, equal to and longer than
// the hidden layers and the window, retracts one while it is still ahead, and
// checks agreement with batch estimation at every step, with and without
// a compaction forced after every mutation.
func TestUpdaterFutureEvents(t *testing.T) {
	for _, cfg := range []UpdaterConfig{{}, {CompactEvery: 1}} {
		spec := updaterSpec(t)
		u, err := NewUpdater(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, end := u.Window()
		var mirror []grid.Point
		add := func(pts ...grid.Point) {
			u.Add(pts...)
			mirror = append(mirror, pts...)
			checkUpdater(t, "add", u, mirror)
		}
		rng := lcg(5)
		at := func(T float64) grid.Point {
			return grid.Point{X: rng.float() * spec.Domain.GX, Y: rng.float() * spec.Domain.GY, T: T}
		}
		var ahead []grid.Point
		for _, dt := range []float64{-6.3, -0.4, 0.3, 1.7, 2.9, 3.6, 7.2, 15.5, 21.1, 30.8, 44.4, 61.0} {
			p := at(end + dt)
			if dt > 40 {
				ahead = append(ahead, p)
			}
			add(p, at(end+dt+0.45))
		}
		for i, k := range []int{1, spec.Ht, spec.Ht + 1, spec.Gt, spec.Gt + 3, 1, spec.Ht} {
			if i == 3 {
				// Still beyond the hidden layers: the retraction must also take
				// the event out of its bucket, or a later advance would apply
				// it to the layers it then reaches.
				if err := u.Remove(ahead[0]); err != nil {
					t.Fatal(err)
				}
				for j, p := range mirror {
					if p == ahead[0] {
						mirror = append(mirror[:j], mirror[j+1:]...)
						break
					}
				}
				checkUpdater(t, "remove ahead", u, mirror)
			}
			if adv, _ := u.AdvanceBy(k); adv != k {
				t.Fatalf("advanced %d layers, want %d", adv, k)
			}
			checkUpdater(t, "advance", u, mirror)
			_, end = u.Window()
			add(at(end-0.5), at(end+0.5), at(end+float64(spec.Ht)+2.5))
		}
		if st := u.Stats(); st.AdvanceReapplied == 0 {
			t.Fatalf("scenario never exercised the events ahead: %+v", st)
		}
		u.Release()
	}
}
