package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/codec"
	"repro/internal/gio"
	"repro/internal/grid"
)

// snapshot.go serializes a stream's recovery point: the raw (unnormalized)
// window ring in logical layer order, the live event set, and the
// updater's drift-control state, all as of one journal LSN. The grid
// itself rides on the existing gio snapshot codec; the envelope adds what
// gio does not carry — the LSN, the window's OT frame offset (gio rebuilds
// a spec with OT 0), the live events, and a whole-body CRC so a damaged
// snapshot is skipped in favor of its predecessor instead of replayed.
//
// File layout:
//
//	"STKDEWS1" | body | u32 crc32c(body)
//	body = u64 lsn | i64 ot | f64 residual | i64 ops |
//	       u64 nlive | nlive × (x, y, t f64) | gio grid snapshot

const snapMagic = "STKDEWS1"

// Snapshot is a stream's recovery point as of LSN: restoring this state
// and replaying the journal's records past LSN reproduces the stream's
// window bitwise (the same float operation sequence an uninterrupted run
// applied).
type Snapshot struct {
	LSN uint64

	// Grid is the raw unnormalized window in logical layer order; its
	// Spec.OT carries the window's frame offset.
	Grid *grid.Grid

	// Live is the window's live event set, in application order.
	Live []grid.Point

	// Residual and Ops are the updater's drift-control counters, persisted
	// so a restored updater compacts exactly when the uninterrupted run
	// would have.
	Residual float64
	Ops      int64
}

// writeSnapshotFile streams the snapshot to path and fsyncs it. The body
// is CRC'd as it streams (no second in-memory copy of the grid).
func writeSnapshotFile(path string, s *Snapshot) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	crc := crc32.New(crcTable)
	body := io.MultiWriter(bw, crc)

	fail := func(err error) error {
		f.Close()
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if _, err := bw.WriteString(snapMagic); err != nil {
		return fail(err)
	}
	w := codec.NewWriter(32 + len(s.Live)*codec.PointBytes)
	w.U64(s.LSN)
	w.I64(int64(s.Grid.Spec.OT))
	w.F64(s.Residual)
	w.I64(s.Ops)
	w.U64(uint64(len(s.Live)))
	w.Points(s.Live)
	if _, err := body.Write(w.B); err != nil {
		return fail(err)
	}
	if err := gio.WriteGrid(body, s.Grid); err != nil {
		return fail(err)
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot reads and fully validates a snapshot file: magic, trailing
// CRC over the whole body, strict field decoding, and an exact-length
// check so trailing bytes are rejected. Recovery treats any error as "this
// snapshot does not exist" and falls back to the previous one.
//
// The file is streamed twice — once through the CRC, before a byte of it
// is trusted, then through the decoder — so a restore allocates the window
// and the live events it returns and no copy of the file beside them.
func ReadSnapshot(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: read snapshot: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("wal: read snapshot: %w", err)
	}
	magic := make([]byte, len(snapMagic))
	if fi.Size() < int64(len(snapMagic)+4) {
		return nil, fmt.Errorf("wal: snapshot %s: bad magic or truncated", path)
	}
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != snapMagic {
		return nil, fmt.Errorf("wal: snapshot %s: bad magic or truncated", path)
	}
	bodyLen := fi.Size() - int64(len(snapMagic)) - 4
	buf := make([]byte, 1<<20)
	crc := crc32.New(crcTable)
	var sum [4]byte
	if n, err := io.CopyBuffer(crc, io.LimitReader(f, bodyLen), buf); err != nil || n != bodyLen {
		return nil, fmt.Errorf("wal: snapshot %s: short read (%d of %d body bytes): %v", path, n, bodyLen, err)
	}
	if _, err := io.ReadFull(f, sum[:]); err != nil || crc.Sum32() != le.Uint32(sum[:]) {
		return nil, fmt.Errorf("wal: snapshot %s: CRC mismatch", path)
	}
	if _, err := f.Seek(int64(len(snapMagic)), io.SeekStart); err != nil {
		return nil, fmt.Errorf("wal: read snapshot: %w", err)
	}

	const fixed = 5 * 8 // lsn, ot, residual, ops, nlive
	body := io.LimitReader(f, bodyLen)
	if _, err := io.ReadFull(body, buf[:fixed]); err != nil {
		return nil, fmt.Errorf("wal: snapshot %s: truncated header", path)
	}
	r := codec.NewReader("wal", buf[:fixed])
	s := &Snapshot{LSN: r.U64()}
	ot := r.I64()
	s.Residual = r.F64()
	s.Ops = r.I64()
	nlive := r.U64()
	if nlive > uint64(bodyLen-fixed)/codec.PointBytes {
		return nil, fmt.Errorf("wal: snapshot %s: claims %d live events in %d bytes", path, nlive, bodyLen)
	}
	if s.LSN == 0 || ot < 0 || ot > int64(math.MaxInt64)/2 ||
		math.IsNaN(s.Residual) || s.Residual < 0 || s.Ops < 0 {
		return nil, fmt.Errorf("wal: snapshot %s: header fields out of range", path)
	}
	s.Live = make([]grid.Point, 0, nlive)
	for left := int(nlive); left > 0; {
		n := min(left, len(buf)/codec.PointBytes)
		if _, err := io.ReadFull(body, buf[:n*codec.PointBytes]); err != nil {
			return nil, fmt.Errorf("wal: snapshot %s: truncated live events", path)
		}
		r := codec.NewReader("wal", buf[:n*codec.PointBytes])
		for i := 0; i < n; i++ {
			s.Live = append(s.Live, grid.Point{X: r.F64(), Y: r.F64(), T: r.F64()})
		}
		left -= n
	}
	g, err := gio.ReadGrid(body)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot %s: %w", path, err)
	}
	// gio's codec is self-describing but not self-terminating; require the
	// embedded grid to account for every remaining byte.
	gridBytes := bodyLen - fixed - int64(nlive)*codec.PointBytes
	if want := gio.GridBytes(g.Spec); gridBytes != want {
		return nil, fmt.Errorf("wal: snapshot %s: %d trailing bytes after the grid", path, gridBytes-want)
	}
	g.Spec.OT = int(ot) // gio rebuilds the spec with OT 0; restore the frame
	s.Grid = g
	return s, nil
}
