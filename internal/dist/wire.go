package dist

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/grid"
)

// wire.go is the shard protocol's codec. Every message is one frame
// (frame.go); the first u32 of the payload is the message kind, and every
// field is little-endian. Every byte a rank exchange moves is actually
// written here and read back on the receiving side, so the byte counts in
// Stats are measured, not estimated. Replies reuse message shapes where
// they fit: a batch estimate and a stream snapshot both answer with
// msgGather, every simple acknowledgement is msgOK, and any rank-side
// failure is msgErr.
//
//	gather:       kind rank t0 voxels(u32) then voxels x f64
//	estimate:     kind rank threads normN algLen count spec alg points
//	err:          kind phaseLen textLen phase text
//	ok:           kind a(i64) b(i64)
//	streamCreate: kind id threads spec
//	streamClose:  kind id
//	ingest:       kind id count points
//	advance:      kind id k
//	region:       kind id box(6 x i64)          -> sum
//	sum:          kind value(f64) rebuilds(i64)
//	topk:         kind id k scale(f64)          -> topkAns
//	topkAns:      kind rebuilds(i64) count then count x (X, Y, T i64, V f64)
//	snapshot:     kind id                       -> gather
//	ping:         kind nonce(u64)               -> ok(nonce, 0)
//	fetch:        kind id count then count x (X, Y, T u32) -> fetchAns
//	fetchAns:     kind count then count x raw value(f64), in request order
const (
	msgGather       uint32 = 2
	msgEstimate     uint32 = 3
	msgErr          uint32 = 4
	msgOK           uint32 = 5
	msgStreamCreate uint32 = 6
	msgStreamClose  uint32 = 7
	msgIngest       uint32 = 8
	msgAdvance      uint32 = 9
	msgRegion       uint32 = 10
	msgSum          uint32 = 11
	msgTopK         uint32 = 12
	msgTopKAns      uint32 = 13
	msgSnapshot     uint32 = 14
	msgPing         uint32 = 15
	msgFetch        uint32 = 16
	msgFetchAns     uint32 = 17

	gatherHeaderBytes = 16
	pointBytes        = 24     // x, y, t as f64
	specBytes         = 16 * 8 // 10 float64 fields + 6 integer fields
	candidateBytes    = 32     // X, Y, T as i64 plus V as f64
	voxelBytes        = 12     // X, Y, T as u32

	// maxWireDim bounds decoded grid dimensions and bandwidths: a corrupt
	// spec must fail decoding, not size a gigavoxel allocation rank-side.
	maxWireDim = 1 << 24
)

var le = binary.LittleEndian

// reader is a cursor over a received payload with a sticky error: decoders
// chain field reads and check err once, so truncated or corrupt frames
// (fuzzing's bread and butter) fail cleanly instead of panicking.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("dist: truncated message (%d bytes, offset %d)", len(r.b), r.off)
	}
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := le.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := le.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// done requires the payload to be fully consumed — trailing garbage means a
// framing bug or corruption, never something to ignore.
func (r *reader) done() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("dist: message has %d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// writer builds a payload by appending fixed-width fields.
type writer struct{ b []byte }

func newWriter(size int) *writer { return &writer{b: make([]byte, 0, size)} }
func (w *writer) u32(v uint32)   { w.b = le.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64)   { w.b = le.AppendUint64(w.b, v) }
func (w *writer) i64(v int64)    { w.u64(uint64(v)) }
func (w *writer) f64(v float64)  { w.u64(math.Float64bits(v)) }
func (w *writer) bytes(b []byte) { w.b = append(w.b, b...) }

func (w *writer) points(pts []grid.Point) {
	for _, p := range pts {
		w.f64(p.X)
		w.f64(p.Y)
		w.f64(p.T)
	}
}

// readPoints decodes count points, validating the remaining length first so
// a corrupt count cannot drive the allocation.
func (r *reader) points(count int) []grid.Point {
	if r.err != nil || count < 0 || r.off+count*pointBytes > len(r.b) {
		r.fail()
		return nil
	}
	pts := make([]grid.Point, count)
	for i := range pts {
		pts[i] = grid.Point{X: r.f64(), Y: r.f64(), T: r.f64()}
	}
	return pts
}

// ---------------------------------------------------------- gather ----

// encodeGather serializes one rank's computed grid — a batch slab or a
// stream window — as its density values plus the root layer t0 where it
// starts.
func encodeGather(rank, t0 int, data []float64) []byte {
	msg := make([]byte, gatherHeaderBytes+8*len(data))
	le.PutUint32(msg[0:], msgGather)
	le.PutUint32(msg[4:], uint32(rank))
	le.PutUint32(msg[8:], uint32(t0))
	le.PutUint32(msg[12:], uint32(len(data)))
	off := gatherHeaderBytes
	for _, v := range data {
		le.PutUint64(msg[off:], math.Float64bits(v))
		off += 8
	}
	return msg
}

// decodeGather is the receiving side of encodeGather.
func decodeGather(msg []byte) (rank, t0 int, data []float64, err error) {
	if len(msg) < gatherHeaderBytes || le.Uint32(msg[0:]) != msgGather {
		return 0, 0, nil, fmt.Errorf("dist: malformed gather message (%d bytes)", len(msg))
	}
	rank = int(le.Uint32(msg[4:]))
	t0 = int(le.Uint32(msg[8:]))
	count := int(le.Uint32(msg[12:]))
	if len(msg) != gatherHeaderBytes+8*count {
		return 0, 0, nil, fmt.Errorf("dist: gather message length %d does not match count %d", len(msg), count)
	}
	data = make([]float64, count)
	off := gatherHeaderBytes
	for i := range data {
		data[i] = math.Float64frombits(le.Uint64(msg[off:]))
		off += 8
	}
	return rank, t0, data, nil
}

// ------------------------------------------------------------ spec ----

func (w *writer) spec(s grid.Spec) {
	w.f64(s.Domain.X0)
	w.f64(s.Domain.Y0)
	w.f64(s.Domain.T0)
	w.f64(s.Domain.GX)
	w.f64(s.Domain.GY)
	w.f64(s.Domain.GT)
	w.f64(s.SRes)
	w.f64(s.TRes)
	w.f64(s.HS)
	w.f64(s.HT)
	w.i64(int64(s.Gx))
	w.i64(int64(s.Gy))
	w.i64(int64(s.Gt))
	w.i64(int64(s.Hs))
	w.i64(int64(s.Ht))
	w.i64(int64(s.OT))
}

func (r *reader) spec() grid.Spec {
	var s grid.Spec
	s.Domain.X0 = r.f64()
	s.Domain.Y0 = r.f64()
	s.Domain.T0 = r.f64()
	s.Domain.GX = r.f64()
	s.Domain.GY = r.f64()
	s.Domain.GT = r.f64()
	s.SRes = r.f64()
	s.TRes = r.f64()
	s.HS = r.f64()
	s.HT = r.f64()
	gx, gy, gt := r.i64(), r.i64(), r.i64()
	hs, ht, ot := r.i64(), r.i64(), r.i64()
	if r.err != nil {
		return grid.Spec{}
	}
	// Reject hostile dimensions before any arithmetic that could overflow
	// or any allocation they would size.
	if gx < 1 || gx > maxWireDim || gy < 1 || gy > maxWireDim || gt < 1 || gt > maxWireDim ||
		hs < 0 || hs > maxWireDim || ht < 0 || ht > maxWireDim ||
		ot < -maxWireDim || ot > int64(math.MaxInt64)/2 ||
		!(s.SRes > 0) || !(s.TRes > 0) || !(s.HS > 0) || !(s.HT > 0) ||
		math.IsInf(s.SRes, 0) || math.IsInf(s.TRes, 0) {
		r.err = fmt.Errorf("dist: spec fields out of range")
		return grid.Spec{}
	}
	s.Gx, s.Gy, s.Gt = int(gx), int(gy), int(gt)
	s.Hs, s.Ht, s.OT = int(hs), int(ht), int(ot)
	return s
}

// -------------------------------------------------------- estimate ----

type estimateReq struct {
	rank    int
	threads int
	normN   int
	alg     string
	spec    grid.Spec
	pts     []grid.Point
}

func encodeEstimate(q estimateReq) []byte {
	w := newWriter(28 + specBytes + len(q.alg) + pointBytes*len(q.pts))
	w.u32(msgEstimate)
	w.u32(uint32(q.rank))
	w.u32(uint32(q.threads))
	w.u64(uint64(q.normN))
	w.u32(uint32(len(q.alg)))
	w.u32(uint32(len(q.pts)))
	w.spec(q.spec)
	w.bytes([]byte(q.alg))
	w.points(q.pts)
	return w.b
}

func decodeEstimate(msg []byte) (estimateReq, error) {
	r := &reader{b: msg}
	if r.u32() != msgEstimate {
		return estimateReq{}, fmt.Errorf("dist: not an estimate message")
	}
	var q estimateReq
	q.rank = int(r.u32())
	q.threads = int(r.u32())
	normN := r.u64()
	algLen := int(r.u32())
	count := int(r.u32())
	q.spec = r.spec()
	if algLen < 0 || algLen > 256 {
		return estimateReq{}, fmt.Errorf("dist: algorithm name of %d bytes", algLen)
	}
	q.alg = string(r.bytes(algLen))
	q.pts = r.points(count)
	if err := r.done(); err != nil {
		return estimateReq{}, err
	}
	if normN > math.MaxInt32 {
		return estimateReq{}, fmt.Errorf("dist: normN %d out of range", normN)
	}
	q.normN = int(normN)
	return q, nil
}

// ------------------------------------------------------- err and ok ----

func encodeErr(phase, text string) []byte {
	w := newWriter(12 + len(phase) + len(text))
	w.u32(msgErr)
	w.u32(uint32(len(phase)))
	w.u32(uint32(len(text)))
	w.bytes([]byte(phase))
	w.bytes([]byte(text))
	return w.b
}

func decodeErr(msg []byte) (phase, text string, err error) {
	r := &reader{b: msg}
	if r.u32() != msgErr {
		return "", "", fmt.Errorf("dist: not an error message")
	}
	pl := int(r.u32())
	tl := int(r.u32())
	if pl < 0 || pl > 256 || tl < 0 || tl > 1<<16 {
		return "", "", fmt.Errorf("dist: error message field lengths %d, %d out of range", pl, tl)
	}
	phase = string(r.bytes(pl))
	text = string(r.bytes(tl))
	return phase, text, r.done()
}

func encodeOK(a, b int64) []byte {
	w := newWriter(20)
	w.u32(msgOK)
	w.i64(a)
	w.i64(b)
	return w.b
}

func decodeOK(msg []byte) (a, b int64, err error) {
	r := &reader{b: msg}
	if r.u32() != msgOK {
		return 0, 0, fmt.Errorf("dist: not an ok message")
	}
	a, b = r.i64(), r.i64()
	return a, b, r.done()
}

// --------------------------------------------------------- streams ----

func encodeStreamCreate(id uint64, threads int, spec grid.Spec) []byte {
	w := newWriter(16 + specBytes)
	w.u32(msgStreamCreate)
	w.u64(id)
	w.u32(uint32(threads))
	w.spec(spec)
	return w.b
}

func decodeStreamCreate(msg []byte) (id uint64, threads int, spec grid.Spec, err error) {
	r := &reader{b: msg}
	if r.u32() != msgStreamCreate {
		return 0, 0, grid.Spec{}, fmt.Errorf("dist: not a stream-create message")
	}
	id = r.u64()
	threads = int(r.u32())
	spec = r.spec()
	return id, threads, spec, r.done()
}

func encodeStreamClose(id uint64) []byte {
	w := newWriter(12)
	w.u32(msgStreamClose)
	w.u64(id)
	return w.b
}

func decodeStreamClose(msg []byte) (id uint64, err error) {
	r := &reader{b: msg}
	if r.u32() != msgStreamClose {
		return 0, fmt.Errorf("dist: not a stream-close message")
	}
	id = r.u64()
	return id, r.done()
}

func encodeIngest(id uint64, pts []grid.Point) []byte {
	w := newWriter(16 + pointBytes*len(pts))
	w.u32(msgIngest)
	w.u64(id)
	w.u32(uint32(len(pts)))
	w.points(pts)
	return w.b
}

func decodeIngest(msg []byte) (id uint64, pts []grid.Point, err error) {
	r := &reader{b: msg}
	if r.u32() != msgIngest {
		return 0, nil, fmt.Errorf("dist: not an ingest message")
	}
	id = r.u64()
	count := int(r.u32())
	pts = r.points(count)
	return id, pts, r.done()
}

func encodeAdvance(id uint64, k int) []byte {
	w := newWriter(20)
	w.u32(msgAdvance)
	w.u64(id)
	w.u64(uint64(k))
	return w.b
}

func decodeAdvance(msg []byte) (id uint64, k int, err error) {
	r := &reader{b: msg}
	if r.u32() != msgAdvance {
		return 0, 0, fmt.Errorf("dist: not an advance message")
	}
	id = r.u64()
	kw := r.u64()
	if err := r.done(); err != nil {
		return 0, 0, err
	}
	if kw > math.MaxInt32 {
		return 0, 0, fmt.Errorf("dist: advance of %d layers out of range", kw)
	}
	return id, int(kw), nil
}

// --------------------------------------------------------- queries ----

func encodeRegion(id uint64, b grid.Box) []byte {
	w := newWriter(60)
	w.u32(msgRegion)
	w.u64(id)
	w.i64(int64(b.X0))
	w.i64(int64(b.X1))
	w.i64(int64(b.Y0))
	w.i64(int64(b.Y1))
	w.i64(int64(b.T0))
	w.i64(int64(b.T1))
	return w.b
}

func decodeRegion(msg []byte) (id uint64, b grid.Box, err error) {
	r := &reader{b: msg}
	if r.u32() != msgRegion {
		return 0, grid.Box{}, fmt.Errorf("dist: not a region message")
	}
	id = r.u64()
	f := [6]int64{r.i64(), r.i64(), r.i64(), r.i64(), r.i64(), r.i64()}
	if err := r.done(); err != nil {
		return 0, grid.Box{}, err
	}
	for _, v := range f {
		if v < -maxWireDim || v > maxWireDim {
			return 0, grid.Box{}, fmt.Errorf("dist: region bound %d out of range", v)
		}
	}
	b = grid.Box{X0: int(f[0]), X1: int(f[1]), Y0: int(f[2]), Y1: int(f[3]), T0: int(f[4]), T1: int(f[5])}
	return id, b, nil
}

func encodeSum(v float64, rebuilds int64) []byte {
	w := newWriter(20)
	w.u32(msgSum)
	w.f64(v)
	w.i64(rebuilds)
	return w.b
}

func decodeSum(msg []byte) (v float64, rebuilds int64, err error) {
	r := &reader{b: msg}
	if r.u32() != msgSum {
		return 0, 0, fmt.Errorf("dist: not a sum message")
	}
	v = r.f64()
	rebuilds = r.i64()
	return v, rebuilds, r.done()
}

func encodeTopK(id uint64, k int, scale float64) []byte {
	w := newWriter(24)
	w.u32(msgTopK)
	w.u64(id)
	w.u32(uint32(k))
	w.f64(scale)
	return w.b
}

func decodeTopK(msg []byte) (id uint64, k int, scale float64, err error) {
	r := &reader{b: msg}
	if r.u32() != msgTopK {
		return 0, 0, 0, fmt.Errorf("dist: not a topk message")
	}
	id = r.u64()
	kw := r.u32()
	scale = r.f64()
	if err := r.done(); err != nil {
		return 0, 0, 0, err
	}
	if kw > 1<<24 {
		return 0, 0, 0, fmt.Errorf("dist: topk k=%d out of range", kw)
	}
	return id, int(kw), scale, nil
}

func encodeTopKAns(rebuilds int64, cands []grid.VoxelDensity) []byte {
	w := newWriter(16 + candidateBytes*len(cands))
	w.u32(msgTopKAns)
	w.i64(rebuilds)
	w.u32(uint32(len(cands)))
	for _, c := range cands {
		w.i64(int64(c.X))
		w.i64(int64(c.Y))
		w.i64(int64(c.T))
		w.f64(c.V)
	}
	return w.b
}

func decodeTopKAns(msg []byte) (rebuilds int64, cands []grid.VoxelDensity, err error) {
	r := &reader{b: msg}
	if r.u32() != msgTopKAns {
		return 0, nil, fmt.Errorf("dist: not a topk answer")
	}
	rebuilds = r.i64()
	count := int(r.u32())
	if count < 0 || r.off+count*candidateBytes > len(r.b) {
		return 0, nil, fmt.Errorf("dist: topk answer count %d does not fit %d bytes", count, len(msg))
	}
	cands = make([]grid.VoxelDensity, count)
	for i := range cands {
		x, y, t := r.i64(), r.i64(), r.i64()
		v := r.f64()
		if x < -maxWireDim || x > maxWireDim || y < -maxWireDim || y > maxWireDim ||
			t < -maxWireDim || t > maxWireDim {
			return 0, nil, fmt.Errorf("dist: topk candidate out of range")
		}
		cands[i] = grid.VoxelDensity{X: int(x), Y: int(y), T: int(t), V: v}
	}
	return rebuilds, cands, r.done()
}

func encodeSnapshot(id uint64) []byte {
	w := newWriter(12)
	w.u32(msgSnapshot)
	w.u64(id)
	return w.b
}

func decodeSnapshot(msg []byte) (id uint64, err error) {
	r := &reader{b: msg}
	if r.u32() != msgSnapshot {
		return 0, fmt.Errorf("dist: not a snapshot message")
	}
	id = r.u64()
	return id, r.done()
}

// voxel is one window voxel in logical coordinates.
type voxel struct{ X, Y, T int }

// inWindow reports whether v lies inside sp's voxel grid.
func inWindow(sp grid.Spec, v voxel) bool {
	return v.X >= 0 && v.X < sp.Gx && v.Y >= 0 && v.Y < sp.Gy && v.T >= 0 && v.T < sp.Gt
}

func encodeFetch(id uint64, vs []voxel) []byte {
	w := newWriter(16 + voxelBytes*len(vs))
	w.u32(msgFetch)
	w.u64(id)
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.u32(uint32(v.X))
		w.u32(uint32(v.Y))
		w.u32(uint32(v.T))
	}
	return w.b
}

// decodeFetch refuses a count that disagrees with the frame length before
// allocating; the rank range-checks the coordinates against its window.
func decodeFetch(msg []byte) (id uint64, vs []voxel, err error) {
	r := &reader{b: msg}
	if r.u32() != msgFetch {
		return 0, nil, fmt.Errorf("dist: not a fetch message")
	}
	id = r.u64()
	count := r.u32()
	if r.err != nil {
		return 0, nil, r.err
	}
	if uint64(count)*voxelBytes != uint64(len(msg)-r.off) {
		return 0, nil, fmt.Errorf("dist: fetch of %d voxels does not fit %d bytes", count, len(msg))
	}
	vs = make([]voxel, count)
	for i := range vs {
		vs[i] = voxel{int(r.u32()), int(r.u32()), int(r.u32())}
	}
	return id, vs, r.done()
}

func encodeFetchAns(vals []float64) []byte {
	w := newWriter(8 + 8*len(vals))
	w.u32(msgFetchAns)
	w.u32(uint32(len(vals)))
	for _, v := range vals {
		w.f64(v)
	}
	return w.b
}

// decodeFetchAns refuses a count that disagrees with the frame length
// before allocating.
func decodeFetchAns(msg []byte) ([]float64, error) {
	r := &reader{b: msg}
	if r.u32() != msgFetchAns {
		return nil, fmt.Errorf("dist: not a fetch answer")
	}
	count := r.u32()
	if r.err != nil {
		return nil, r.err
	}
	if uint64(count)*8 != uint64(len(msg)-r.off) {
		return nil, fmt.Errorf("dist: fetch answer of %d values does not fit %d bytes", count, len(msg))
	}
	vals := make([]float64, count)
	for i := range vals {
		vals[i] = r.f64()
	}
	return vals, r.done()
}

// encodePing builds a heartbeat probe; the rank echoes the nonce in a
// msgOK reply, proving the connection pairs requests with replies (a stale
// or crossed reply fails the nonce check, not just the transport).
func encodePing(nonce uint64) []byte {
	w := newWriter(12)
	w.u32(msgPing)
	w.u64(nonce)
	return w.b
}

func decodePing(msg []byte) (nonce uint64, err error) {
	r := &reader{b: msg}
	if r.u32() != msgPing {
		return 0, fmt.Errorf("dist: not a ping message")
	}
	nonce = r.u64()
	return nonce, r.done()
}

// decodeAny exercises the decoder for whatever kind the payload claims —
// the fuzzing entry point, and the server's dispatch guard: every arm must
// reject corrupt input with an error, never a panic or an unbounded
// allocation.
func decodeAny(msg []byte) error {
	if len(msg) < 4 {
		return fmt.Errorf("dist: message too short for a kind")
	}
	var err error
	switch le.Uint32(msg) {
	case msgGather:
		_, _, _, err = decodeGather(msg)
	case msgEstimate:
		_, err = decodeEstimate(msg)
	case msgErr:
		_, _, err = decodeErr(msg)
	case msgOK:
		_, _, err = decodeOK(msg)
	case msgStreamCreate:
		_, _, _, err = decodeStreamCreate(msg)
	case msgStreamClose:
		_, err = decodeStreamClose(msg)
	case msgIngest:
		_, _, err = decodeIngest(msg)
	case msgAdvance:
		_, _, err = decodeAdvance(msg)
	case msgRegion:
		_, _, err = decodeRegion(msg)
	case msgSum:
		_, _, err = decodeSum(msg)
	case msgTopK:
		_, _, _, err = decodeTopK(msg)
	case msgTopKAns:
		_, _, err = decodeTopKAns(msg)
	case msgSnapshot:
		_, err = decodeSnapshot(msg)
	case msgPing:
		_, err = decodePing(msg)
	case msgFetch:
		_, _, err = decodeFetch(msg)
	case msgFetchAns:
		_, err = decodeFetchAns(msg)
	default:
		err = fmt.Errorf("dist: unknown message kind %d", le.Uint32(msg))
	}
	return err
}
