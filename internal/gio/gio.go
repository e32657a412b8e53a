// Package gio provides the I/O substrate for STKDE: CSV event sets, binary
// grid snapshots, VTK structured-points export for 3-D visualization tools,
// and PNG heatmap slices (the Figure 1 style visualization).
package gio

import (
	"bufio"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/grid"
)

// WritePoints writes events as CSV with an "x,y,t" header.
func WritePoints(w io.Writer, pts []grid.Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"x", "y", "t"}); err != nil {
		return fmt.Errorf("gio: write header: %w", err)
	}
	rec := make([]string, 3)
	for _, p := range pts {
		rec[0] = strconv.FormatFloat(p.X, 'g', -1, 64)
		rec[1] = strconv.FormatFloat(p.Y, 'g', -1, 64)
		rec[2] = strconv.FormatFloat(p.T, 'g', -1, 64)
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("gio: write point: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadPoints reads events from CSV. A first row of "x,y,t" (any case) is
// treated as a header and skipped; extra columns are ignored.
func ReadPoints(r io.Reader) ([]grid.Point, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	var pts []grid.Point
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return pts, nil
		}
		if err != nil {
			return nil, fmt.Errorf("gio: read points: %w", err)
		}
		if len(rec) < 3 {
			return nil, fmt.Errorf("gio: row %d has %d fields, want >= 3", len(pts)+1, len(rec))
		}
		if first {
			first = false
			if _, err := strconv.ParseFloat(rec[0], 64); err != nil {
				continue // header row
			}
		}
		var p grid.Point
		var errs [3]error
		p.X, errs[0] = strconv.ParseFloat(rec[0], 64)
		p.Y, errs[1] = strconv.ParseFloat(rec[1], 64)
		p.T, errs[2] = strconv.ParseFloat(rec[2], 64)
		for _, e := range errs {
			if e != nil {
				return nil, fmt.Errorf("gio: row %d: %w", len(pts)+1, e)
			}
		}
		pts = append(pts, p)
	}
}

// gridMagic identifies the binary grid snapshot format.
const gridMagic = "STKDEG1\n"

// GridBytes returns the length of WriteGrid's encoding of a grid of the
// spec: the magic, ten float64 header fields and the voxels.
func GridBytes(s grid.Spec) int64 {
	return int64(len(gridMagic)) + 10*8 + s.Bytes()
}

// WriteGrid writes a binary snapshot of the grid: a magic string, the
// little-endian spec geometry, and the raw float64 voxel data.
func WriteGrid(w io.Writer, g *grid.Grid) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(gridMagic); err != nil {
		return fmt.Errorf("gio: write magic: %w", err)
	}
	s := g.Spec
	header := []float64{
		s.Domain.X0, s.Domain.Y0, s.Domain.T0,
		s.Domain.GX, s.Domain.GY, s.Domain.GT,
		s.SRes, s.TRes, s.HS, s.HT,
	}
	if err := binary.Write(bw, binary.LittleEndian, header); err != nil {
		return fmt.Errorf("gio: write header: %w", err)
	}
	// The voxels go through a small block, not binary.Write: that would
	// stage the whole grid in a second buffer of its own size.
	block := make([]byte, 0, dataBlock*8)
	for data := g.Data; len(data) > 0; {
		n := min(len(data), dataBlock)
		block = block[:0]
		for _, v := range data[:n] {
			block = binary.LittleEndian.AppendUint64(block, math.Float64bits(v))
		}
		if _, err := bw.Write(block); err != nil {
			return fmt.Errorf("gio: write data: %w", err)
		}
		data = data[n:]
	}
	return bw.Flush()
}

// dataBlock is how many voxels WriteGrid and ReadGrid convert at a time.
const dataBlock = 8192

// ReadGrid reads a snapshot written by WriteGrid.
func ReadGrid(r io.Reader) (*grid.Grid, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(gridMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("gio: read magic: %w", err)
	}
	if string(magic) != gridMagic {
		return nil, fmt.Errorf("gio: bad magic %q", magic)
	}
	header := make([]float64, 10)
	if err := binary.Read(br, binary.LittleEndian, header); err != nil {
		return nil, fmt.Errorf("gio: read header: %w", err)
	}
	spec, err := grid.NewSpec(grid.Domain{
		X0: header[0], Y0: header[1], T0: header[2],
		GX: header[3], GY: header[4], GT: header[5],
	}, header[6], header[7], header[8], header[9])
	if err != nil {
		return nil, fmt.Errorf("gio: invalid spec in snapshot: %w", err)
	}
	g, err := grid.NewGrid(spec, nil)
	if err != nil {
		return nil, err
	}
	block := make([]byte, dataBlock*8)
	for data := g.Data; len(data) > 0; {
		n := min(len(data), dataBlock)
		if _, err := io.ReadFull(br, block[:n*8]); err != nil {
			return nil, fmt.Errorf("gio: read data: %w", err)
		}
		for i := range data[:n] {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(block[i*8:]))
		}
		data = data[n:]
	}
	return g, nil
}

// WriteVTK writes the grid as a legacy-format VTK structured-points file
// (ASCII), loadable in ParaView/VisIt for space-time cube visualization.
func WriteVTK(w io.Writer, g *grid.Grid, name string) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	s := g.Spec
	fmt.Fprintf(bw, "# vtk DataFile Version 3.0\n%s\nASCII\n", name)
	fmt.Fprintf(bw, "DATASET STRUCTURED_POINTS\n")
	fmt.Fprintf(bw, "DIMENSIONS %d %d %d\n", s.Gx, s.Gy, s.Gt)
	fmt.Fprintf(bw, "ORIGIN %g %g %g\n", s.CenterX(0), s.CenterY(0), s.CenterT(0))
	fmt.Fprintf(bw, "SPACING %g %g %g\n", s.SRes, s.SRes, s.TRes)
	fmt.Fprintf(bw, "POINT_DATA %d\nSCALARS density double 1\nLOOKUP_TABLE default\n", s.Voxels())
	// VTK expects x fastest; our layout is t fastest, so iterate explicitly.
	for T := 0; T < s.Gt; T++ {
		for Y := 0; Y < s.Gy; Y++ {
			for X := 0; X < s.Gx; X++ {
				if _, err := fmt.Fprintf(bw, "%g\n", g.At(X, Y, T)); err != nil {
					return fmt.Errorf("gio: write vtk: %w", err)
				}
			}
		}
	}
	return bw.Flush()
}
