package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/wal"
)

// walTestConfig returns a durable-streams config rooted at dir. SyncNone
// keeps the tests fast: crash simulation works on the written bytes (the
// page cache survives an abandoned server), and torn writes are simulated
// by explicit truncation.
func walTestConfig(dir string, segBytes int64, snapEvery int) Config {
	return Config{WAL: &WALConfig{
		Dir:           dir,
		Sync:          wal.SyncNone,
		SegmentBytes:  segBytes,
		SnapshotEvery: snapEvery,
	}}
}

// walOp is one randomized stream mutation. Each op journals exactly one
// record (ingest batches stay under ingestChunk), so op i — 0-based,
// after the create record at LSN 1 — lands at LSN i+2, and a recovery
// position maps back to the surviving op prefix exactly.
type walOp struct {
	kind wal.Kind
	pts  []grid.Point
	t    float64
}

// genWalOps draws a deterministic op sequence: mostly ingests around a
// frontier that occasional advances push forward (shrinking then sliding
// the window past the creation extent).
func genWalOps(state *uint64, n int) []walOp {
	next := func() uint64 {
		*state = *state*6364136223846793005 + 1442695040888963407
		return *state >> 33
	}
	frontier := streamTestDomain.GT * 0.4
	ops := make([]walOp, n)
	for i := range ops {
		if next()%4 == 0 {
			frontier += 0.5 + 3*float64(next()%1000)/1000
			ops[i] = walOp{kind: wal.KindAdvance, t: frontier}
			continue
		}
		ops[i] = walOp{
			kind: wal.KindIngest,
			pts:  streamEvents(1+int(next()%40), frontier, next()),
		}
	}
	return ops
}

// applyWalOps drives ops[0:upto] through the server's mutation paths.
func applyWalOps(t *testing.T, s *Server, st *stream, ops []walOp, upto int) {
	t.Helper()
	for i := 0; i < upto; i++ {
		var err error
		switch ops[i].kind {
		case wal.KindIngest:
			_, _, err = s.streamIngest(st, ops[i].pts)
		case wal.KindAdvance:
			_, _, _, err = s.streamAdvance(st, ops[i].t)
		}
		if err != nil {
			t.Fatalf("op %d (%v): %v", i, ops[i].kind, err)
		}
	}
}

// expectSameWindow asserts two streams hold bitwise identical windows:
// the recovery contract is not "close", it is the exact float state the
// acknowledged mutations produced.
func expectSameWindow(t *testing.T, tag string, got, want *stream) {
	t.Helper()
	gu, wu := got.up.(localWindow).Updater, want.up.(localWindow).Updater
	if gu.Spec() != wu.Spec() {
		t.Fatalf("%s: specs differ: %+v vs %+v", tag, gu.Spec(), wu.Spec())
	}
	if gu.N() != wu.N() {
		t.Fatalf("%s: live counts differ: %d vs %d", tag, gu.N(), wu.N())
	}
	if got.ds.size() != want.ds.size() {
		t.Fatalf("%s: dataset sizes differ: %d vs %d", tag, got.ds.size(), want.ds.size())
	}
	gg, err := gu.Ring().Snapshot(nil)
	if err != nil {
		t.Fatalf("%s: snapshot recovered: %v", tag, err)
	}
	wg, err := wu.Ring().Snapshot(nil)
	if err != nil {
		t.Fatalf("%s: snapshot reference: %v", tag, err)
	}
	for i := range gg.Data {
		if gg.Data[i] != wg.Data[i] {
			t.Fatalf("%s: voxel %d differs bitwise: %x vs %x", tag, i, gg.Data[i], wg.Data[i])
		}
	}
}

// truncateTailSegment simulates the torn write a crash leaves: the final
// journal segment loses a pseudo-random number of trailing bytes
// (possibly all of them). Damage is confined to the tail — that is the
// only place a single-writer crash can tear.
func truncateTailSegment(t *testing.T, dir string, state *uint64) {
	t.Helper()
	segs, err := wal.ListSegments(dir)
	if err != nil || len(segs) == 0 {
		return
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	*state = *state*6364136223846793005 + 1442695040888963407
	keep := int64(*state>>33) % (fi.Size() + 1)
	if err := os.Truncate(last, keep); err != nil {
		t.Fatal(err)
	}
}

// TestWALCrashRecoveryProperty is the durability payoff criterion: for
// random op sequences, random snapshot cadences, random segment sizes,
// and random crash points (including torn trailing bytes), a recovered
// server answers every query exactly as a server that applied only the
// surviving op prefix from scratch — the recovered window is bitwise the
// acknowledged state, never a drifted approximation of it.
func TestWALCrashRecoveryProperty(t *testing.T) {
	spec := streamTestSpec(t)
	snapEveryChoices := []int{-1, 2, 5, 0}
	for seed := uint64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			state := seed * 2654435761
			next := func() uint64 {
				state = state*6364136223846793005 + 1442695040888963407
				return state >> 33
			}
			dir := t.TempDir()
			segBytes := int64(256 + next()%4096)
			snapEvery := snapEveryChoices[next()%uint64(len(snapEveryChoices))]
			cfg := walTestConfig(dir, segBytes, snapEvery)

			a := New(cfg)
			stA, err := a.createStream(spec)
			if err != nil {
				t.Fatal(err)
			}
			nOps := 8 + int(next()%25)
			ops := genWalOps(&state, nOps)
			applyWalOps(t, a, stA, ops, nOps)
			// Crash: abandon a mid-flight (no Shutdown, no Close), and half
			// the time tear trailing bytes off the journal tail.
			if next()%2 == 0 {
				truncateTailSegment(t, filepath.Join(dir, stA.id), &state)
			}

			b := New(cfg)
			stats, err := b.Recover()
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if stats.Streams == 0 {
				// The torn tail reached back through the create record (one
				// young segment, deep cut): the stream never durably
				// existed, and recovery must have cleared the husk.
				if _, ok := b.streams.get(stA.id); ok {
					t.Fatal("stream with no durable history was resurrected")
				}
				if _, err := os.Stat(filepath.Join(dir, stA.id)); !os.IsNotExist(err) {
					t.Fatalf("husk directory survived recovery: %v", err)
				}
				return
			}
			last, ok := stats.LastLSN[stA.id]
			if !ok || last == 0 {
				t.Fatalf("recovered stream has no LSN position: %+v", stats)
			}
			surviving := int(last) - 1 // LSN 1 is the create record
			if surviving > nOps {
				t.Fatalf("recovered past the applied ops: LSN %d for %d ops", last, nOps)
			}
			stB, ok := b.streams.get(stA.id)
			if !ok {
				t.Fatalf("recovered stream %s not registered", stA.id)
			}

			// Reference: a fresh server applying only the surviving prefix.
			c := New(Config{})
			stC, err := c.createStream(spec)
			if err != nil {
				t.Fatal(err)
			}
			applyWalOps(t, c, stC, ops, surviving)
			expectSameWindow(t, fmt.Sprintf("after %d/%d surviving ops", surviving, nOps), stB, stC)

			// The recovered server keeps working: apply the remaining ops to
			// both and they stay in lockstep (replay did not wedge the
			// journal or desync the drift counters).
			applyWalOps(t, b, stB, ops[surviving:], nOps-surviving)
			applyWalOps(t, c, stC, ops[surviving:], nOps-surviving)
			expectSameWindow(t, "after continued mutations", stB, stC)
		})
	}
}

// TestWALRecoveredServerAnswersHTTP closes the loop at the API: after a
// crash and recovery, /v1/query, /v1/region, and /v1/hotspots answer
// within 1e-9 of a server that ingested the same events uninterrupted.
func TestWALRecoveredServerAnswersHTTP(t *testing.T) {
	spec := streamTestSpec(t)
	dir := t.TempDir()
	cfg := walTestConfig(dir, 1024, 3)

	a := New(cfg)
	stA, err := a.createStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	state := uint64(42)
	ops := genWalOps(&state, 12)
	applyWalOps(t, a, stA, ops, len(ops))
	// Crash (abandon) and recover.
	b := New(cfg)
	stats, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Streams != 1 || stats.LastLSN[stA.id] != uint64(len(ops))+1 {
		t.Fatalf("recover stats %+v, want 1 stream at LSN %d", stats, len(ops)+1)
	}

	c := New(Config{})
	stC, err := c.createStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	applyWalOps(t, c, stC, ops, len(ops))

	tsB := httptest.NewServer(b)
	defer tsB.Close()
	tsC := httptest.NewServer(c)
	defer tsC.Close()

	// Voxel queries across the window (both ids are s…01: same-seeded
	// servers allocate identically).
	if stA.id != stC.id {
		t.Fatalf("stream ids diverged: %s vs %s", stA.id, stC.id)
	}
	t0, t1 := stC.window()
	for i := 0; i < 8; i++ {
		x := float64(i) * streamTestDomain.GX / 8
		y := float64(i) * streamTestDomain.GY / 8
		tm := t0 + (t1-t0)*float64(i)/8
		got, _ := queryDensity(t, tsB, stA.id, x, y, tm)
		want, _ := queryDensity(t, tsC, stC.id, x, y, tm)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("query(%g,%g,%g) recovered=%g uninterrupted=%g", x, y, tm, got, want)
		}
	}

	var region [2]struct {
		Mass  float64 `json:"mass"`
		Error string  `json:"error"`
	}
	var hot [2]struct {
		Hotspots []struct {
			Voxel   [3]int  `json:"voxel"`
			Density float64 `json:"density"`
		} `json:"hotspots"`
		Error string `json:"error"`
	}
	for i, ts := range []*httptest.Server{tsB, tsC} {
		resp, err := http.Get(ts.URL + "/v1/region?dataset=" + stA.id + "&sres=2&tres=1&hs=6&ht=3")
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, &region[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("region status %d: %s", resp.StatusCode, region[i].Error)
		}
		resp, err = http.Get(ts.URL + "/v1/hotspots?dataset=" + stA.id + "&sres=2&tres=1&hs=6&ht=3&k=5")
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, &hot[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("hotspots status %d: %s", resp.StatusCode, hot[i].Error)
		}
	}
	if math.Abs(region[0].Mass-region[1].Mass) > 1e-9 {
		t.Fatalf("region mass recovered=%g uninterrupted=%g", region[0].Mass, region[1].Mass)
	}
	if len(hot[0].Hotspots) != len(hot[1].Hotspots) {
		t.Fatalf("hotspot counts differ: %d vs %d", len(hot[0].Hotspots), len(hot[1].Hotspots))
	}
	for i := range hot[0].Hotspots {
		if hot[0].Hotspots[i].Voxel != hot[1].Hotspots[i].Voxel ||
			math.Abs(hot[0].Hotspots[i].Density-hot[1].Hotspots[i].Density) > 1e-9 {
			t.Fatalf("hotspot %d differs: %+v vs %+v", i, hot[0].Hotspots[i], hot[1].Hotspots[i])
		}
	}
}

// TestWALShutdownWarmRestart: a graceful shutdown checkpoints every
// stream, so the next boot is a pure snapshot load — zero records
// replayed — and new stream ids do not collide with recovered ones.
func TestWALShutdownWarmRestart(t *testing.T) {
	spec := streamTestSpec(t)
	dir := t.TempDir()
	cfg := walTestConfig(dir, 0, -1) // no automatic checkpoints: only Shutdown's

	a := New(cfg)
	stA, err := a.createStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	state := uint64(7)
	ops := genWalOps(&state, 10)
	applyWalOps(t, a, stA, ops, len(ops))
	wantN := stA.up.N()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	b := New(cfg)
	stats, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Streams != 1 || stats.Snapshots != 1 || stats.Replayed != 0 {
		t.Fatalf("warm restart stats %+v, want 1 stream from snapshot with 0 replayed", stats)
	}
	stB, ok := b.streams.get(stA.id)
	if !ok {
		t.Fatalf("stream %s not recovered", stA.id)
	}
	if stB.up.N() != wantN {
		t.Fatalf("recovered window holds %d events, want %d", stB.up.N(), wantN)
	}
	if got := b.met.walCheckpoints.Value(); got != 0 {
		t.Fatalf("recovery wrote %d checkpoints", got)
	}
	// A new stream must not reuse the recovered id.
	st2, err := b.createStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.id == stA.id {
		t.Fatalf("fresh stream reused recovered id %s", st2.id)
	}
}

// TestWALCheckpointedStreamRecoversLocally: a journal with a snapshot
// restores a local window even on a shard-configured server, without
// dialing the peers — only snapshot-less journals are sharded ones.
func TestWALCheckpointedStreamRecoversLocally(t *testing.T) {
	spec := streamTestSpec(t)
	dir := t.TempDir()
	cfg := walTestConfig(dir, 0, -1) // no automatic checkpoints: only Shutdown's

	a := New(cfg)
	stA, err := a.createStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	state := uint64(11)
	applyWalOps(t, a, stA, genWalOps(&state, 10), 10)
	wantN := stA.up.N()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	cfg.Shard = &ShardConfig{Peers: []string{"inproc://nobody-listening"}}
	b := New(cfg)
	stats, err := b.Recover()
	if err != nil {
		t.Fatalf("checkpointed stream failed to recover beside unreachable peers: %v", err)
	}
	if stats.Streams != 1 || stats.Snapshots != 1 {
		t.Fatalf("recover stats %+v, want 1 stream from snapshot", stats)
	}
	stB, ok := b.streams.get(stA.id)
	if !ok {
		t.Fatalf("stream %s not recovered", stA.id)
	}
	if stB.sharded {
		t.Fatal("checkpointed stream recovered sharded, want local")
	}
	if _, ok := stB.up.(localWindow); !ok {
		t.Fatalf("recovered window is %T, want a local updater", stB.up)
	}
	if stB.up.N() != wantN {
		t.Fatalf("recovered window holds %d events, want %d", stB.up.N(), wantN)
	}
}

// TestWALDeleteTearsDownJournal: DELETE removes the on-disk journal, an
// interrupted delete (tombstone) is finished by recovery, and neither
// resurrects the stream.
func TestWALDeleteTearsDownJournal(t *testing.T) {
	spec := streamTestSpec(t)
	dir := t.TempDir()
	cfg := walTestConfig(dir, 0, 0)

	a := New(cfg)
	st1, err := a.createStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.streamIngest(st1, streamEvents(50, 5, 1)); err != nil {
		t.Fatal(err)
	}
	st2, err := a.createStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	a.deleteStream(st1)
	if _, err := os.Stat(filepath.Join(dir, st1.id)); !os.IsNotExist(err) {
		t.Fatalf("deleted stream's journal survived: %v", err)
	}
	// Interrupt st2's delete after the tombstone rename — the crash window
	// Remove leaves — by renaming manually.
	if err := os.Rename(filepath.Join(dir, st2.id), filepath.Join(dir, st2.id+wal.DeletedSuffix)); err != nil {
		t.Fatal(err)
	}

	b := New(cfg)
	stats, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Streams != 0 || stats.Tombstones != 1 {
		t.Fatalf("recover stats %+v, want 0 streams and 1 tombstone cleared", stats)
	}
	if _, err := os.Stat(filepath.Join(dir, st2.id+wal.DeletedSuffix)); !os.IsNotExist(err) {
		t.Fatalf("tombstone survived recovery: %v", err)
	}
}

// TestWALCreateFailureAborts: a stream whose journal cannot be opened is
// not created — durability is not best-effort — and nothing leaks.
func TestWALCreateFailureAborts(t *testing.T) {
	spec := streamTestSpec(t)
	dir := t.TempDir()
	// The first allocated id is deterministic; squat on it with a regular
	// file so the journal MkdirAll fails.
	if err := os.WriteFile(filepath.Join(dir, "s0000000000000001"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(walTestConfig(dir, 0, 0))
	if _, err := s.createStream(spec); err == nil {
		t.Fatal("createStream succeeded with an unopenable journal")
	}
	if n := s.streams.count(); n != 0 {
		t.Fatalf("%d streams registered after failed create", n)
	}
	if used := s.cache.budgetHandle().Used(); used != 0 {
		t.Fatalf("failed create leaked %d budget bytes", used)
	}
	// The id was burned but the next create must work.
	if _, err := s.createStream(spec); err != nil {
		t.Fatalf("create after failed create: %v", err)
	}
}

// TestWALAutoCheckpointRetires: with a small SnapshotEvery the journal
// checkpoints itself during ingest, retiring covered segments, and the
// metrics expose the activity.
func TestWALAutoCheckpointRetires(t *testing.T) {
	spec := streamTestSpec(t)
	dir := t.TempDir()
	s := New(walTestConfig(dir, 512, 2))
	st, err := s.createStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	state := uint64(11)
	ops := genWalOps(&state, 16)
	applyWalOps(t, s, st, ops, len(ops))
	if got := s.met.walCheckpoints.Value(); got == 0 {
		t.Fatal("no automatic checkpoint fired")
	}
	if got := s.met.walAppends.Value(); got != int64(len(ops))+1 {
		t.Fatalf("wal_appends = %d, want %d", got, len(ops)+1)
	}
	snaps, err := wal.ListSnapshots(filepath.Join(dir, st.id))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots on disk = %d (%v), want exactly 1 (older pruned)", len(snaps), err)
	}
	// Replay after recovery is bounded by the checkpoint cadence, not the
	// journal length.
	b := New(walTestConfig(dir, 512, 2))
	stats, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed > 2 {
		t.Fatalf("recovery replayed %d records past the snapshot, cadence is 2", stats.Replayed)
	}
	stB, _ := b.streams.get(st.id)
	expectSameWindow(t, "checkpointed recovery", stB, st)
}
