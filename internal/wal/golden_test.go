package wal

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/grid"
)

// goldenSpec is a small window with a different value in every spec
// field, so swapping two fields changes the pinned bytes.
func goldenSpec(t *testing.T) grid.Spec {
	t.Helper()
	sp, err := grid.NewSpec(grid.Domain{X0: -1, Y0: 3, T0: 0.125, GX: 2, GY: 1.5, GT: 1.75}, 0.5, 0.25, 0.7, 1.3)
	if err != nil {
		t.Fatalf("NewSpec: %v", err)
	}
	return sp
}

// TestRecordGoldenBytes: one CRC frame of each record kind encodes to the
// pinned bytes and decodes back. Journals outlive builds, so the format is
// pinned, not only its round trip.
func TestRecordGoldenBytes(t *testing.T) {
	recs := []Record{
		{LSN: 1, Kind: KindCreate, Spec: goldenSpec(t)},
		{LSN: 2, Kind: KindIngest, Points: []grid.Point{{X: 1, Y: 2, T: 3}, {X: -4, Y: 0.5, T: 6}}},
		{LSN: 3, Kind: KindAdvance, T: 12.5},
	}
	golden := []string{
		"8c000000334ad860010000000100000000000000000000000000f0bf0000000000000840000000000000c03f0000000000000040000000000000f83f000000000000fc3f000000000000e03f000000000000d03f666666666666e63fcdccccccccccf43f040000000000000003000000000000000700000000000000020000000000000006000000000000000000000000000000",
		"40000000c5397a7b02000000020000000000000002000000000000000000f03f0000000000000040000000000000084000000000000010c0000000000000e03f0000000000001840",
		"140000007b8bbf460300000003000000000000000000000000002940",
	}
	for i, rec := range recs {
		frame, err := appendFrame(nil, rec)
		if err != nil {
			t.Fatalf("%v: %v", rec.Kind, err)
		}
		if got := hex.EncodeToString(frame); got != golden[i] {
			t.Errorf("%v frame:\n got %s\nwant %s", rec.Kind, got, golden[i])
		}
		want, _ := hex.DecodeString(golden[i])
		got, err := DecodeRecord(want[frameHeaderBytes:])
		if err != nil || !reflect.DeepEqual(got, rec) {
			t.Errorf("%v: golden payload decodes to %+v, %v", rec.Kind, got, err)
		}
	}
}

// TestSnapshotGoldenBytes: writeSnapshotFile writes the pinned bytes, and
// ReadSnapshot reads them back field for field.
func TestSnapshotGoldenBytes(t *testing.T) {
	golden := strings.Join(strings.Fields(`
		53544b44455753310900000000000000050000000000000011ea2d819997713d
		07000000000000000100000000000000000000000000f03f0000000000000040
		000000000000084053544b444547310a000000000000f0bf0000000000000840
		000000000000c03f0000000000000040000000000000f83f000000000000fc3f
		000000000000e03f000000000000d03f666666666666e63fcdccccccccccf43f
		000000000000e0bf000000000000e03f000000000000f83f0000000000000440
		0000000000000c40000000000000124000000000000016400000000000001a40
		0000000000001e40000000000000214000000000000023400000000000002540
		000000000000274000000000000029400000000000002b400000000000002d40
		0000000000002f40000000000080304000000000008031400000000000803240
		0000000000803340000000000080344000000000008035400000000000803640
		0000000000803740000000000080384000000000008039400000000000803a40
		0000000000803b400000000000803c400000000000803d400000000000803e40
		0000000000803f4000000000004040400000000000c040400000000000404140
		0000000000c0414000000000004042400000000000c042400000000000404340
		0000000000c0434000000000004044400000000000c044400000000000404540
		0000000000c0454000000000004046400000000000c046400000000000404740
		0000000000c0474000000000004048400000000000c048400000000000404940
		0000000000c049400000000000404a400000000000c04a400000000000404b40
		0000000000c04b400000000000404c400000000000c04c400000000000404d40
		0000000000c04d400000000000404e400000000000c04e400000000000404f40
		0000000000c04f40000000000020504000000000006050400000000000a05040
		0000000000e05040000000000020514000000000006051400000000000a05140
		0000000000e05140000000000020524000000000006052400000000000a05240
		0000000000e05240000000000020534000000000006053400000000000a05340
		0000000000e05340000000000020544000000000006054400000000000a05440
		3605551f
	`), "")
	sp := goldenSpec(t)
	sp.OT = 5
	g, err := grid.NewGrid(sp, nil)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	for i := range g.Data {
		g.Data[i] = float64(i) - 0.5
	}
	want := &Snapshot{LSN: 9, Grid: g, Live: []grid.Point{{X: 1, Y: 2, T: 3}}, Residual: 1e-12, Ops: 7}
	path := filepath.Join(t.TempDir(), "snap")
	if err := writeSnapshotFile(path, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != golden {
		t.Fatalf("snapshot file:\n got %s\nwant %s", got, golden)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.LSN != want.LSN || got.Residual != want.Residual || got.Ops != want.Ops ||
		got.Grid.Spec != sp || !reflect.DeepEqual(got.Live, want.Live) || !reflect.DeepEqual(got.Grid.Data, g.Data) {
		t.Fatalf("read back %+v, want %+v", got, want)
	}
}

// TestCreateRefusesNegativeOT: a create record carries a window's creation
// spec, so recovery accepts only OT >= 0, a tighter bound than the shard
// wire's (TestStreamCreateAcceptsNegativeOT in the dist package).
func TestCreateRefusesNegativeOT(t *testing.T) {
	sp := goldenSpec(t)
	sp.OT = -1
	payload, err := encodePayload(Record{LSN: 1, Kind: KindCreate, Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := DecodeRecord(payload); err == nil {
		t.Fatalf("create record with OT -1 decoded: %+v", rec)
	}
}
