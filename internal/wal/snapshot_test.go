package wal

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/grid"
)

// TestSnapshotStreamsLargeBodies: ReadSnapshot streams the file through a
// fixed buffer, so a snapshot whose live events and window each span
// several buffers must come back bit for bit, and damage or truncation
// anywhere — first buffer, a later one, the trailer — must be refused.
func TestSnapshotStreamsLargeBodies(t *testing.T) {
	sp, err := grid.NewSpec(grid.Domain{GX: 64, GY: 64, GT: 40}, 1, 1, 3, 2)
	if err != nil {
		t.Fatalf("NewSpec: %v", err)
	}
	sp.OT = 17
	g, err := grid.NewGrid(sp, nil)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	for i := range g.Data {
		g.Data[i] = math.Sqrt(float64(i)) - 100
	}
	live := make([]grid.Point, 100_000) // 2.4 MB: more than two read buffers
	for i := range live {
		live[i] = grid.Point{X: float64(i), Y: -float64(i) / 3, T: float64(i % 97)}
	}
	want := &Snapshot{LSN: 42, Grid: g, Live: live, Residual: 1e-12, Ops: 7}
	path := filepath.Join(t.TempDir(), "snap")
	if err := writeSnapshotFile(path, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.LSN != want.LSN || got.Residual != want.Residual || got.Ops != want.Ops || got.Grid.Spec != sp {
		t.Fatalf("header differs: %+v", got)
	}
	if len(got.Live) != len(live) {
		t.Fatalf("%d live events, want %d", len(got.Live), len(live))
	}
	for i := range live {
		if got.Live[i] != live[i] {
			t.Fatalf("live event %d: %v, want %v", i, got.Live[i], live[i])
		}
	}
	for i, v := range g.Data {
		if math.Float64bits(got.Grid.Data[i]) != math.Float64bits(v) {
			t.Fatalf("voxel %d differs", i)
		}
	}

	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad")
	for _, off := range []int{len(snapMagic) + 3, 1<<20 + 11, 3 << 20, len(full) - 5, len(full) - 1} {
		b := append([]byte(nil), full...)
		b[off] ^= 0x10
		if err := os.WriteFile(bad, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(bad); err == nil {
			t.Fatalf("bit flip at byte %d of %d was accepted", off, len(full))
		}
	}
	for _, cut := range []int{0, 5, len(snapMagic) + 4, 1 << 20, len(full) - 1} {
		if err := os.WriteFile(bad, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(bad); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes was accepted", cut, len(full))
		}
	}
	if err := os.WriteFile(bad, append(append([]byte(nil), full...), 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bad); err == nil {
		t.Fatalf("snapshot with a trailing byte was accepted")
	}
}
