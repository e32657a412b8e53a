package core

import (
	"testing"

	"repro/internal/grid"
)

// mutateStream applies n deterministic Add/AdvanceTo mutations — and, when
// removes is set, retractions of random live events — returning the
// advanced frontier. Most advances move zero to two layers, one in eight
// jumps past the hidden layers or the whole window. Driving two updaters with
// the same rng state applies bitwise identical mutation sequences (a
// retraction picks its victim from the updater's own live set, so the
// sequences stay identical only while the live sets do).
func mutateStream(u *Updater, rng *lcg, frontier float64, n int, removes bool) float64 {
	spec := u.Spec()
	for i := 0; i < n; i++ {
		switch c := rng.next() % 8; {
		case c == 0:
			jumps := []int{spec.Ht, spec.Ht + 1, spec.Gt, spec.Gt + 3}
			frontier += float64(jumps[rng.next()%4]) * spec.TRes
			u.AdvanceTo(frontier)
		case c == 1:
			frontier += 0.5 + 2*rng.float()
			u.AdvanceTo(frontier)
		case c == 2 && removes:
			if live := u.Live(); len(live) > 0 {
				u.Remove(live[int(rng.next())%len(live)])
			}
		default:
			batch := make([]grid.Point, 1+rng.next()%3)
			for j := range batch {
				batch[j] = streamEvent(rng, spec.Domain, frontier)
			}
			u.Add(batch...)
		}
	}
	return frontier
}

// expectSameLive asserts two updaters hold the same live events in the
// same order.
func expectSameLive(t *testing.T, tag string, a, b *Updater) {
	t.Helper()
	la, lb := a.Live(), b.Live()
	if len(la) != len(lb) {
		t.Fatalf("%s: live sets differ in size: %d vs %d", tag, len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("%s: live event %d differs: %v vs %v", tag, i, la[i], lb[i])
		}
	}
}

// expectBitwise asserts two updaters hold bitwise identical windows.
func expectBitwise(t *testing.T, tag string, a, b *Updater) {
	t.Helper()
	if a.Spec() != b.Spec() {
		t.Fatalf("%s: specs differ: %+v vs %+v", tag, a.Spec(), b.Spec())
	}
	if a.N() != b.N() {
		t.Fatalf("%s: live counts differ: %d vs %d", tag, a.N(), b.N())
	}
	ga, err := a.Ring().Snapshot(nil)
	if err != nil {
		t.Fatalf("%s: snapshot a: %v", tag, err)
	}
	gb, err := b.Ring().Snapshot(nil)
	if err != nil {
		t.Fatalf("%s: snapshot b: %v", tag, err)
	}
	for i := range ga.Data {
		if ga.Data[i] != gb.Data[i] {
			t.Fatalf("%s: voxel %d differs bitwise: %x vs %x", tag, i, ga.Data[i], gb.Data[i])
		}
	}
}

// TestUpdaterStateRestoreBitwise is the durability contract: capturing
// State and restoring it yields an updater that continues the exact float
// operation sequence of the original — including compaction points, which
// the persisted drift counters align — so every later window is bitwise
// equal, and recovery-by-replay cannot drift from an uninterrupted run.
func TestUpdaterStateRestoreBitwise(t *testing.T) {
	spec := updaterSpec(t)
	// CompactEvery exercises compaction parity on both sides of the capture.
	cfg := UpdaterConfig{CompactEvery: 13}
	u, err := NewUpdater(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := lcg(7)
	frontier := mutateStream(u, &rng, spec.Domain.T0+8.0, 48, false)

	st, err := u.State(nil)
	if err != nil {
		t.Fatalf("State: %v", err)
	}
	r, err := RestoreUpdater(st, cfg)
	if err != nil {
		t.Fatalf("RestoreUpdater: %v", err)
	}
	expectBitwise(t, "immediately after restore", u, r)

	// Continue the identical mutation stream on both.
	rngU, rngR := rng, rng
	fu := mutateStream(u, &rngU, frontier, 48, false)
	fr := mutateStream(r, &rngR, frontier, 48, false)
	if fu != fr {
		t.Fatalf("mutation streams diverged: frontier %g vs %g", fu, fr)
	}
	expectBitwise(t, "after continued mutations", u, r)

	// The restored updater still honors the batch-equivalence contract.
	checkUpdater(t, "restored", r, r.Live())
}

// TestUpdaterRestoreMidStream captures State at many points of a stream
// that keeps events ahead of the window (so the ring's hidden layers and
// the buckets past them are populated at the capture), restores, and drives
// original and restored with the same later mutations. The restored
// updater rebuilds its hidden layers from the live events in live order.
// With no Remove in the history — all a journal can hold — that is ingest
// order, so both sides perform the same float operations: equal live sets,
// equal compaction points, bitwise equal windows. With retractions in the
// history live order no longer is the order the original's hidden layers
// were filled in, and the windows agree to rounding instead.
func TestUpdaterRestoreMidStream(t *testing.T) {
	spec := updaterSpec(t)
	cfg := UpdaterConfig{CompactEvery: 29}
	for _, removes := range []bool{false, true} {
		for prefix := 5; prefix <= 75; prefix += 14 {
			u, err := NewUpdater(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := lcg(uint64(prefix))
			frontier := mutateStream(u, &rng, spec.Domain.T0+8.0, prefix, removes)
			st, err := u.State(nil)
			if err != nil {
				t.Fatalf("State: %v", err)
			}
			r, err := RestoreUpdater(st, cfg)
			if err != nil {
				t.Fatalf("RestoreUpdater: %v", err)
			}
			expectBitwise(t, "immediately after restore", u, r) // the window is copied as captured
			// Later mutations must not retract: a victim is drawn from the
			// updater's own live set, which the two sides are yet to prove
			// equal.
			base := u.Stats().Compactions
			rngU, rngR := rng, rng
			fu, fr := frontier, frontier
			for step := 0; step < 20; step++ {
				fu = mutateStream(u, &rngU, fu, 3, false)
				fr = mutateStream(r, &rngR, fr, 3, false)
				if !removes {
					expectBitwise(t, "after continued mutations", u, r)
				}
			}
			expectSameLive(t, "after continued mutations", u, r)
			if got, want := r.Stats().Compactions, u.Stats().Compactions-base; got != want || want == 0 {
				t.Fatalf("prefix %d: restored compacted %d times after the capture, original %d (want equal, nonzero)", prefix, got, want)
			}
			checkUpdater(t, "restored", r, r.Live())
			checkUpdater(t, "original", u, u.Live())
			u.Release()
			r.Release()
		}
	}
}

func TestRestoreUpdaterValidation(t *testing.T) {
	spec := updaterSpec(t)
	u, err := NewUpdater(spec, UpdaterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	u.Add(grid.Point{X: 3, Y: 3, T: 2})
	st, err := u.State(nil)
	if err != nil {
		t.Fatalf("State: %v", err)
	}

	bad := st
	bad.Residual = -1
	if _, err := RestoreUpdater(bad, UpdaterConfig{}); err == nil {
		t.Fatalf("negative residual accepted")
	}
	bad = st
	bad.Grid = nil
	if _, err := RestoreUpdater(bad, UpdaterConfig{}); err == nil {
		t.Fatalf("missing grid accepted")
	}
	short, err := grid.NewGrid(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	short.Data = short.Data[:len(short.Data)-1]
	bad = st
	bad.Grid = short
	if _, err := RestoreUpdater(bad, UpdaterConfig{}); err == nil {
		t.Fatalf("mis-sized grid accepted")
	}

	// Budget accounting: the restored window (visible and hidden layers) is
	// charged, and released back; a budget that fits the visible layers
	// but not the hidden ones fails and leaves nothing charged.
	b := grid.NewBudget(spec.Bytes())
	if _, err := RestoreUpdater(st, UpdaterConfig{Options: Options{Budget: b}}); err == nil {
		t.Fatalf("restore fit in a ring-only budget")
	}
	if b.Used() != 0 {
		t.Fatalf("failed restore left %d bytes charged", b.Used())
	}
	b = grid.NewBudget(WindowBytes(spec))
	r, err := RestoreUpdater(st, UpdaterConfig{Options: Options{Budget: b}})
	if err != nil {
		t.Fatalf("restore within budget: %v", err)
	}
	if b.Used() != WindowBytes(spec) {
		t.Fatalf("restored window charged %d bytes, want %d", b.Used(), WindowBytes(spec))
	}
	r.Release()
	if b.Used() != 0 {
		t.Fatalf("release left %d bytes charged", b.Used())
	}
}
