package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/grid"
)

// windowDigest pins every answer of one fixed updater script: the FNV-64a
// hash of the Float64bits of Snapshot, TopK(9) and two BoxMass answers
// after every step. A change to the updater's storage or apply order that
// is meant to be bitwise-neutral must leave it unchanged.
//
// Both BoxMass boxes are one layer thick. The sketch sums a thicker box
// block by block in its physical layout, so the last bits of such a sum
// follow the ring's base and length — it is a ≤1e-9 answer, checked as
// such by checkUpdater — while a one-layer box is summed voxel by voxel in
// the same order whatever the layout.
const windowDigest = 0x8b55d36a6053257

// TestUpdaterWindowDigest runs one fixed script against a window whose
// length is not a multiple of the sketch's 4-layer blocks (Gt 19, Ht 3):
// strip-sized and small batches with late events (behind the window's
// start), events past the window's end and events beyond the hidden layers,
// one retraction, forced compactions, advances by 1, Ht, Ht+1, Gt and
// Gt+Ht+1 layers, and a State/RestoreUpdater round trip mid-script, after
// which the restored updater carries on. It asserts the digest of every
// answer along the way. Go may fuse a multiply and an add off amd64, which
// would change the last bits, so the test runs on amd64 only.
func TestUpdaterWindowDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned digest assumes unfused multiply-adds, which only amd64 guarantees")
	}
	spec, err := grid.NewSpec(grid.Domain{GX: 21, GY: 17, GT: 19}, 1, 1, 3.2, 2.4)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Gt%4 == 0 || spec.Ht < 2 {
		t.Fatalf("spec Gt %d, Ht %d: want Gt off the 4-layer blocks and Ht >= 2", spec.Gt, spec.Ht)
	}
	cfg := UpdaterConfig{CompactEvery: 97, Options: Options{Threads: 2}}
	u, err := NewUpdater(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { u.Release() }()

	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	digest := func() {
		snap, err := u.Snapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range snap.Data {
			word(math.Float64bits(v))
		}
		top, err := u.TopK(9)
		if err != nil {
			t.Fatal(err)
		}
		for _, vd := range top {
			word(uint64(vd.X))
			word(uint64(vd.Y))
			word(uint64(vd.T))
			word(math.Float64bits(vd.V))
		}
		for _, box := range []grid.Box{
			{X0: 0, X1: spec.Gx - 1, Y0: 0, Y1: spec.Gy - 1, T0: spec.Gt / 2, T1: spec.Gt / 2},
			{X0: 3, X1: 14, Y0: 2, Y1: 11, T0: spec.Gt - 1, T1: spec.Gt - 1},
		} {
			m, err := u.BoxMass(box)
			if err != nil {
				t.Fatal(err)
			}
			word(math.Float64bits(m))
		}
	}

	rng := lcg(29)
	var compactions, reapplied int64
	for i, k := range []int{1, spec.Ht, spec.Ht + 1, spec.Gt, spec.Gt + spec.Ht + 1} {
		t0, end := u.Window()
		big := make([]grid.Point, 60) // past stripMinEvents: split over the strips
		for j := range big {
			big[j] = streamEvent(&rng, spec.Domain, end)
		}
		u.Add(big...)
		digest()
		at := func(T float64) grid.Point {
			return grid.Point{X: rng.float() * spec.Domain.GX, Y: rng.float() * spec.Domain.GY, T: T}
		}
		u.Add(at(t0-1.5), at(t0+0.3), at(end+0.6), at(end+float64(spec.Ht)+4.5), at(end+2*float64(spec.Gt)))
		digest()
		switch i {
		case 1:
			live := u.Live()
			if err := u.Remove(live[len(live)/3]); err != nil {
				t.Fatal(err)
			}
			digest()
		case 2:
			st, err := u.State(nil)
			if err != nil {
				t.Fatal(err)
			}
			r, err := RestoreUpdater(st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			compactions += u.Stats().Compactions
			reapplied += u.Stats().AdvanceReapplied
			u.Release()
			u = r
			digest()
		}
		if adv, _ := u.AdvanceBy(k); adv != k {
			t.Fatalf("advanced %d layers, want %d", adv, k)
		}
		digest()
	}
	compactions += u.Stats().Compactions
	reapplied += u.Stats().AdvanceReapplied
	if compactions == 0 || reapplied == 0 {
		t.Fatalf("script compacted %d times and re-applied %d future events; want both nonzero", compactions, reapplied)
	}
	if got := h.Sum64(); got != windowDigest {
		t.Fatalf("window digest = %#x, want %#x", got, uint64(windowDigest))
	}
}
