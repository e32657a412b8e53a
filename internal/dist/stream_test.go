package dist

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/grid"
)

// exactStep is one op of the exactness script: a batch (advance false) or
// an AdvanceTo target.
type exactStep struct {
	name    string
	pts     []grid.Point
	t       float64
	advance bool
}

// TestShardedStreamExactAfterEveryOp: after every op of a script covering
// the window's corner cases, a window sharded over R ∈ {1, 2, 3, 4} ranks
// answers N, Live, Snapshot, At, BoxMass and TopK like a single-process
// core.Updater fed the same ops (within 1e-9, ties tolerated), and its
// advances expire the same events.
func TestShardedStreamExactAfterEveryOp(t *testing.T) {
	spec, err := grid.NewSpec(grid.Domain{GX: 20, GY: 16, GT: 10}, 1, 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	at := func(x, y, tt float64) grid.Point { return grid.Point{X: x, Y: y, T: tt} }
	dup := at(5.5, 5.5, 4.5) // a voxel centre: its neighbours tie exactly
	body := testPoints(120, spec.Domain, 31)
	more := testPoints(60, grid.Domain{GX: 20, GY: 16, T0: 4, GT: 10}, 32)
	script := []exactStep{
		{name: "events past the lookahead (all-zero window)", pts: []grid.Point{at(3, 4, 14.2), at(15, 9, 16.7)}},
		{name: "ingest", pts: body},
		{name: "duplicates", pts: []grid.Point{dup, at(1, 1, 1), dup, dup}},
		{name: "one more duplicate", pts: []grid.Point{dup}},
		{name: "advance one layer", t: 10.5, advance: true},
		{name: "late events behind the window", pts: []grid.Point{at(7, 7, -1), at(8, 8, 0.2), at(9, 9, -40)}},
		{name: "covered advance", t: 5, advance: true},
		{name: "NaN advance", t: math.NaN(), advance: true},
		{name: "advance three layers", t: 13.5, advance: true},
		{name: "ingest in the slid window", pts: more},
		{name: "advance eight layers", t: 21.2, advance: true},
		{name: "advance past everything (empty window)", t: 100, advance: true},
	}
	for _, r := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("r%d", r), func(t *testing.T) {
			sg, err := testCluster(t, r, false).NewStream(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer sg.Release()
			u, err := core.NewUpdater(spec, core.UpdaterConfig{Options: core.Options{Threads: 1}})
			if err != nil {
				t.Fatal(err)
			}
			defer u.Release()
			checkExact(t, "empty window", sg, u)
			for _, st := range script {
				if !st.advance {
					if err := sg.Add(st.pts...); err != nil {
						t.Fatalf("%s: %v", st.name, err)
					}
					u.Add(st.pts...)
				} else {
					ga, ge, err := sg.AdvanceTo(st.t)
					ua, ue := u.AdvanceTo(st.t)
					if err != nil || ga != ua || ge != ue {
						t.Fatalf("%s: sharded (%d,%d,%v), updater (%d,%d)", st.name, ga, ge, err, ua, ue)
					}
				}
				checkExact(t, st.name, sg, u)
			}
		})
	}
}

// checkExact compares every read surface of a sharded window with the
// single-process reference.
func checkExact(t *testing.T, step string, sg *StreamGroup, u *core.Updater) {
	t.Helper()
	if sg.N() != u.N() || sg.Spec() != u.Spec() {
		t.Fatalf("%s: sharded N=%d spec %+v, updater N=%d spec %+v", step, sg.N(), sg.Spec(), u.N(), u.Spec())
	}
	if got, want := sg.Live(), u.Live(); !slices.Equal(got, want) {
		t.Fatalf("%s: sharded live set %v, updater %v", step, got, want)
	}
	ref, err := u.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	snap, err := sg.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if d := maxAbsDiff(ref, snap); d > 1e-9 {
		t.Fatalf("%s: sharded snapshot differs by %g", step, d)
	}
	sp := u.Spec()
	b := sp.Bounds()
	for _, box := range []grid.Box{b, {X0: 3, X1: 9, Y0: 2, Y1: 12, T0: 1, T1: 5}, {X0: 5, X1: 5, Y0: 5, Y1: 5, T0: 4, T1: 4}} {
		want, err := u.BoxMass(box)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := sg.BoxMass(box); err != nil || !closeTo(got, want) {
			t.Fatalf("%s: box %+v mass %g (%v), updater %g", step, box, got, err, want)
		}
	}
	nonzero := 0
	for _, v := range ref.Data {
		if v != 0 {
			nonzero++
		}
	}
	for _, k := range []int{1, 7, nonzero + 3, sp.Voxels() + 5} {
		checkTopK(t, sg, u, k)
	}
	for _, v := range append([]grid.VoxelDensity{{}, {X: 5, Y: 5, T: 4}, {X: b.X1, Y: b.Y1, T: b.T1}}, mustTopK(t, u, 3)...) {
		got, err := sg.At(v.X, v.Y, v.T)
		if want := u.At(v.X, v.Y, v.T); err != nil || !closeTo(got, want) {
			t.Fatalf("%s: At(%d,%d,%d) = %g (%v), updater %g", step, v.X, v.Y, v.T, got, err, want)
		}
	}
	if _, err := sg.At(b.X1+1, 0, 0); err == nil {
		t.Fatalf("%s: At outside the window answered", step)
	}
}

// TestShardedStreamWorkContract is the clock-free work contract of sharded
// streams on the repository benchmark's stream shape (326×151×42, Hs 13,
// Ht 4, time-ordered 512-event batches, one-layer advances ahead of any
// batch that reaches past the window): every event is shipped to exactly
// one rank, an advance moves the same few bytes whatever the live count,
// and each hotspot read takes the recorded number of threshold rounds.
func TestShardedStreamWorkContract(t *testing.T) {
	spec, err := grid.NewSpec(grid.Domain{GX: 326, GY: 151, GT: 42}, 1, 1, 13, 4)
	if err != nil {
		t.Fatal(err)
	}
	dom := spec.Domain
	dom.GT *= 2
	pts := data.SocialMedia{}.Generate(3072, dom, 7)
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
	// Threshold rounds of the top-10 read taken after each batch. One rank
	// always stops at its first round (m = 2k). More ranks split each hot
	// spot's events, so their lists disagree more on this sparse a window.
	rounds := map[int][]int64{
		1: {1, 1, 1, 1, 1, 1},
		2: {3, 3, 3, 2, 3, 3},
		3: {6, 5, 5, 2, 3, 3},
	}
	for r, want := range rounds {
		t.Run(fmt.Sprintf("r%d", r), func(t *testing.T) {
			cl := testCluster(t, r, false)
			sg, err := cl.NewStream(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer sg.Release()
			bytes := func() (sent, recv int64) {
				for _, rc := range cl.CommStats() {
					sent, recv = sent+rc.Sent, recv+rc.Recv
				}
				return sent, recv
			}
			// One advance: r requests of kind, id and k, r msgOK replies.
			advBytes := int64(r) * (2*frameHeaderBytes + 20 + 20)
			var got []int64
			end := spec.Domain.T0 + float64(spec.Gt)*spec.TRes
			var ingestSent, messages int64
			for lo := 0; lo < len(pts); lo += 512 {
				batch := pts[lo:min(lo+512, len(pts))]
				for ; batch[len(batch)-1].T >= end; end += spec.TRes {
					s0, r0 := bytes()
					n := sg.N()
					if k, _, err := sg.AdvanceTo(end + spec.TRes/2); err != nil || k != 1 {
						t.Fatalf("advance: %d layers, %v", k, err)
					}
					s1, r1 := bytes()
					if s1-s0+r1-r0 != advBytes {
						t.Fatalf("advance at live count %d moved %d bytes, want %d", n, s1-s0+r1-r0, advBytes)
					}
				}
				s0, _ := bytes()
				if err := sg.Add(batch...); err != nil {
					t.Fatal(err)
				}
				s1, _ := bytes()
				ingestSent += s1 - s0
				messages += int64(min(r, len(batch)))
				before := sg.Stats().TopKRounds
				if _, err := sg.TopK(10); err != nil {
					t.Fatal(err)
				}
				got = append(got, sg.Stats().TopKRounds-before)
			}
			st := sg.Stats()
			if st.EventsShipped != int64(len(pts)) {
				t.Fatalf("shipped %d events for %d ingested, want replication exactly 1", st.EventsShipped, len(pts))
			}
			if want := codec.PointBytes*int64(len(pts)) + messages*(frameHeaderBytes+16); ingestSent != want {
				t.Fatalf("ingest sent %d bytes, want %d (every event once, plus framing)", ingestSent, want)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("top-10 threshold rounds per read %v, recorded %v", got, want)
			}
			t.Logf("R=%d: every advance moved %d bytes; %d voxels fetched over %d rounds", r, advBytes, st.VoxelsFetched, st.TopKRounds)
		})
	}
}
