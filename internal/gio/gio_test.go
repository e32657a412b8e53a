package gio

import (
	"bytes"
	"encoding/binary"
	"image/png"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/grid"
)

func testGrid(t *testing.T) *grid.Grid {
	t.Helper()
	spec, err := grid.NewSpec(grid.Domain{X0: -3, Y0: 2, T0: 10, GX: 7.5, GY: 5, GT: 9},
		0.5, 1.5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.NewGrid(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := data.NewRNG(3)
	for i := range g.Data {
		g.Data[i] = r.Float64() * 10
	}
	return g
}

func TestPointsRoundTrip(t *testing.T) {
	pts := data.Uniform{}.Generate(500, grid.Domain{GX: 100, GY: 50, GT: 10}, 7)
	var buf bytes.Buffer
	if err := WritePoints(&buf, pts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPoints(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("read %d points, wrote %d", len(got), len(pts))
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Fatalf("point %d: %v != %v", i, got[i], pts[i])
		}
	}
}

func TestReadPointsWithoutHeader(t *testing.T) {
	in := "1.5,2.5,3.5\n4,5,6\n"
	pts, err := ReadPoints(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0] != (grid.Point{X: 1.5, Y: 2.5, T: 3.5}) {
		t.Fatalf("got %v", pts)
	}
}

func TestReadPointsExtraColumns(t *testing.T) {
	in := "x,y,t,label\n1,2,3,case\n"
	pts, err := ReadPoints(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0] != (grid.Point{X: 1, Y: 2, T: 3}) {
		t.Fatalf("got %v", pts)
	}
}

func TestReadPointsErrors(t *testing.T) {
	if _, err := ReadPoints(strings.NewReader("x,y\n1,2\n")); err == nil {
		t.Error("expected error for too few columns")
	}
	if _, err := ReadPoints(strings.NewReader("x,y,t\n1,abc,3\n")); err == nil {
		t.Error("expected error for non-numeric value")
	}
}

func TestGridRoundTrip(t *testing.T) {
	g := testGrid(t)
	var buf bytes.Buffer
	if err := WriteGrid(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGrid(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec.Gx != g.Spec.Gx || got.Spec.Gy != g.Spec.Gy || got.Spec.Gt != g.Spec.Gt {
		t.Fatalf("spec dims differ: %+v vs %+v", got.Spec, g.Spec)
	}
	if math.Abs(got.Spec.HS-g.Spec.HS) > 0 || math.Abs(got.Spec.TRes-g.Spec.TRes) > 0 {
		t.Fatalf("spec params differ")
	}
	for i := range g.Data {
		if got.Data[i] != g.Data[i] {
			t.Fatalf("voxel %d differs", i)
		}
	}
}

// TestGridBytesMatchesWriteGrid: GridBytes is the length of WriteGrid's
// output, for a one-voxel grid, a grid inside one data block and one of
// several blocks plus a partial one.
func TestGridBytesMatchesWriteGrid(t *testing.T) {
	for _, d := range []grid.Domain{
		{GX: 1, GY: 1, GT: 1},
		{X0: -3, Y0: 2, T0: 10, GX: 7.5, GY: 5, GT: 9},
		{GX: 40, GY: 30, GT: 20},
	} {
		spec, err := grid.NewSpec(d, 1, 1, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		g, err := grid.NewGrid(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteGrid(&buf, g); err != nil {
			t.Fatal(err)
		}
		if got, want := GridBytes(spec), int64(buf.Len()); got != want {
			t.Errorf("%dx%dx%d: GridBytes = %d, WriteGrid wrote %d", spec.Gx, spec.Gy, spec.Gt, got, want)
		}
	}
}

// TestGridBlockedCodec: the voxels are converted a block at a time; a grid
// of several blocks and a partial one must produce the byte stream
// encoding/binary does (the format has not changed), carry every bit
// pattern through, and fail on any truncation.
func TestGridBlockedCodec(t *testing.T) {
	spec, err := grid.NewSpec(grid.Domain{GX: 30, GY: 31, GT: 29}, 1, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.NewGrid(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(g.Data); n <= 3*dataBlock || n%dataBlock == 0 {
		t.Fatalf("test grid of %d voxels does not straddle blocks of %d", n, dataBlock)
	}
	r := data.NewRNG(7)
	for i := range g.Data {
		g.Data[i] = math.Float64frombits(r.Uint64()) // NaNs, infinities, subnormals, both zeros
	}
	var buf bytes.Buffer
	if err := WriteGrid(&buf, g); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	binary.Write(&want, binary.LittleEndian, g.Data)
	full := buf.Bytes()
	if tail := full[len(full)-want.Len():]; !bytes.Equal(tail, want.Bytes()) {
		t.Fatalf("voxel bytes differ from encoding/binary's")
	}
	got, err := ReadGrid(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range g.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("voxel %d: bits %x, want %x", i, math.Float64bits(got.Data[i]), math.Float64bits(v))
		}
	}
	for _, cut := range []int{len(full) - 1, len(full) - 8*dataBlock, len(full) - want.Len() + 3} {
		if _, err := ReadGrid(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("grid truncated to %d of %d bytes was accepted", cut, len(full))
		}
	}
}

func TestReadGridBadMagic(t *testing.T) {
	if _, err := ReadGrid(strings.NewReader("NOTAGRID00000000")); err == nil {
		t.Error("expected bad-magic error")
	}
	if _, err := ReadGrid(strings.NewReader("")); err == nil {
		t.Error("expected error on empty input")
	}
}

func TestWriteVTK(t *testing.T) {
	g := testGrid(t)
	var buf bytes.Buffer
	if err := WriteVTK(&buf, g, "stkde test"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# vtk DataFile Version 3.0",
		"DATASET STRUCTURED_POINTS",
		"DIMENSIONS 15 10 6",
		"SCALARS density double 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VTK output missing %q", want)
		}
	}
	// One scalar per voxel.
	lines := strings.Count(out, "\n")
	if lines < g.Spec.Voxels() {
		t.Errorf("VTK has %d lines, want >= %d voxels", lines, g.Spec.Voxels())
	}
}

func TestWritePNGSlice(t *testing.T) {
	g := testGrid(t)
	var buf bytes.Buffer
	if err := WritePNGSlice(&buf, g, 2, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := img.Bounds()
	if b.Dx() != g.Spec.Gx || b.Dy() != g.Spec.Gy {
		t.Errorf("PNG is %dx%d, want %dx%d", b.Dx(), b.Dy(), g.Spec.Gx, g.Spec.Gy)
	}
	if err := WritePNGSlice(&buf, g, 99, 0, 0.5); err == nil {
		t.Error("expected error for out-of-range slice")
	}
	if err := WritePNGSlice(&buf, g, -1, 0, 0.5); err == nil {
		t.Error("expected error for negative slice")
	}
}

// TestHeatPaletteRange: every density maps to a valid opaque color and the
// ramp is monotone in red (low->high heat).
func TestHeatPaletteRange(t *testing.T) {
	check := func(vRaw uint16) bool {
		v := float64(vRaw) / 65535 * 1.5
		c := heat(v)
		return c.A == 255
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	if heat(0.0).R >= heat(1.0).R {
		t.Error("hot end should be redder than cold end")
	}
}

func TestPNGZeroGrid(t *testing.T) {
	spec, _ := grid.NewSpec(grid.Domain{GX: 4, GY: 4, GT: 2}, 1, 1, 1, 1)
	g, _ := grid.NewGrid(spec, nil)
	var buf bytes.Buffer
	if err := WritePNGSlice(&buf, g, 0, 0, 0); err != nil {
		t.Fatalf("zero grid must not fail: %v", err)
	}
}
