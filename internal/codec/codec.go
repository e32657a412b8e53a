// Package codec holds the binary field encodings that the shard wire
// (internal/dist) and the stream journal (internal/wal) share: fixed-width
// little-endian integers and floats, event points and grid specs. Each
// caller keeps its own framing, checksums and kinds; this package keeps
// one decoding discipline for both. A Reader never panics on truncated or
// hostile input, checks every element count against the bytes left before
// it allocates, and refuses trailing bytes.
//
// Layouts (little-endian):
//
//	point: x, y, t as f64 (24 bytes)
//	spec:  Domain X0, Y0, T0, GX, GY, GT, SRes, TRes, HS, HT as f64,
//	       then Gx, Gy, Gt, Hs, Ht, OT as i64 (128 bytes)
package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/grid"
)

const (
	PointBytes = 24     // x, y, t as f64
	SpecBytes  = 16 * 8 // 10 float64 fields + 6 integer fields

	// MaxDim bounds decoded grid dimensions and bandwidths: a corrupt spec
	// must fail decoding, not size a gigavoxel allocation.
	MaxDim = 1 << 24
)

var le = binary.LittleEndian

// Reader is a cursor over a received payload with a sticky error: decoders
// chain field reads and check the error once. After the first failure
// every read returns zero.
type Reader struct {
	b      []byte
	off    int
	err    error
	prefix string
}

// NewReader returns a Reader over b whose errors begin with prefix, the
// calling package's name.
func NewReader(prefix string, b []byte) *Reader { return &Reader{b: b, prefix: prefix} }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%s: truncated payload (%d bytes, offset %d)", r.prefix, len(r.b), r.off)
	}
}

// Err returns the reader's first error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) U32() uint32 {
	if r.err != nil || len(r.b)-r.off < 4 {
		r.fail()
		return 0
	}
	v := le.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *Reader) U64() uint64 {
	if r.err != nil || len(r.b)-r.off < 8 {
		r.fail()
		return 0
	}
	v := le.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes returns the next n bytes, aliasing the payload.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b)-r.off {
		r.fail()
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// Count returns n if n elements of size bytes each fit in the unread
// bytes, and otherwise fails the reader and returns 0, so a corrupt count
// cannot drive an allocation. The check divides: a product could wrap a
// 32-bit int and let a hostile count through.
func (r *Reader) Count(n uint32, size int) int {
	if r.err == nil && uint64(n) > uint64((len(r.b)-r.off)/size) {
		r.err = fmt.Errorf("%s: count %d of %d-byte elements exceeds the %d bytes left", r.prefix, n, size, len(r.b)-r.off)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Points decodes n points.
func (r *Reader) Points(n uint32) []grid.Point {
	pts := make([]grid.Point, r.Count(n, PointBytes))
	for i := range pts {
		pts[i] = grid.Point{X: r.F64(), Y: r.F64(), T: r.F64()}
	}
	return pts
}

// Spec decodes a grid spec, rejecting hostile dimensions before any
// arithmetic that could overflow or any allocation they would size. The
// frame offset may be negative down to -MaxDim; a caller with a tighter
// bound checks it after decoding.
func (r *Reader) Spec() grid.Spec {
	var s grid.Spec
	s.Domain.X0 = r.F64()
	s.Domain.Y0 = r.F64()
	s.Domain.T0 = r.F64()
	s.Domain.GX = r.F64()
	s.Domain.GY = r.F64()
	s.Domain.GT = r.F64()
	s.SRes = r.F64()
	s.TRes = r.F64()
	s.HS = r.F64()
	s.HT = r.F64()
	gx, gy, gt := r.I64(), r.I64(), r.I64()
	hs, ht, ot := r.I64(), r.I64(), r.I64()
	if r.err != nil {
		return grid.Spec{}
	}
	if gx < 1 || gx > MaxDim || gy < 1 || gy > MaxDim || gt < 1 || gt > MaxDim ||
		hs < 0 || hs > MaxDim || ht < 0 || ht > MaxDim ||
		ot < -MaxDim || ot > int64(math.MaxInt64)/2 ||
		!(s.SRes > 0) || !(s.TRes > 0) || !(s.HS > 0) || !(s.HT > 0) ||
		math.IsInf(s.SRes, 0) || math.IsInf(s.TRes, 0) {
		r.err = fmt.Errorf("%s: spec fields out of range", r.prefix)
		return grid.Spec{}
	}
	s.Gx, s.Gy, s.Gt = int(gx), int(gy), int(gt)
	s.Hs, s.Ht, s.OT = int(hs), int(ht), int(ot)
	return s
}

// Done returns the reader's error, or an error if bytes are left unread:
// trailing bytes mean a framing bug or corruption, never something to
// ignore.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("%s: %d trailing bytes", r.prefix, len(r.b)-r.off)
	}
	return r.err
}

// Writer builds a payload in B by appending fixed-width fields.
type Writer struct{ B []byte }

// NewWriter returns a Writer with room for size bytes.
func NewWriter(size int) *Writer { return &Writer{B: make([]byte, 0, size)} }

func (w *Writer) U32(v uint32)   { w.B = le.AppendUint32(w.B, v) }
func (w *Writer) U64(v uint64)   { w.B = le.AppendUint64(w.B, v) }
func (w *Writer) I64(v int64)    { w.U64(uint64(v)) }
func (w *Writer) F64(v float64)  { w.U64(math.Float64bits(v)) }
func (w *Writer) Bytes(b []byte) { w.B = append(w.B, b...) }

func (w *Writer) Points(pts []grid.Point) {
	for _, p := range pts {
		w.F64(p.X)
		w.F64(p.Y)
		w.F64(p.T)
	}
}

func (w *Writer) Spec(s grid.Spec) {
	w.F64(s.Domain.X0)
	w.F64(s.Domain.Y0)
	w.F64(s.Domain.T0)
	w.F64(s.Domain.GX)
	w.F64(s.Domain.GY)
	w.F64(s.Domain.GT)
	w.F64(s.SRes)
	w.F64(s.TRes)
	w.F64(s.HS)
	w.F64(s.HT)
	w.I64(int64(s.Gx))
	w.I64(int64(s.Gy))
	w.I64(int64(s.Gt))
	w.I64(int64(s.Hs))
	w.I64(int64(s.Ht))
	w.I64(int64(s.OT))
}
