package dist

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/grid"
)

// wire.go defines the shard protocol's messages. Every message is one frame
// (frame.go); the first u32 of the payload is the message kind. Fields,
// points and specs use internal/codec's little-endian encodings and its
// strict reader, which the journal (internal/wal) shares. Every byte a
// rank exchange moves is actually written here and read back on the
// receiving side, so the byte counts in Stats are measured, not
// estimated. Replies reuse message shapes where they fit: a batch estimate
// and a stream snapshot both answer with msgGather, every simple
// acknowledgement is msgOK, and any rank-side failure is msgErr.
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
	candidateBytes    = 32 // X, Y, T as i64 plus V as f64
	voxelBytes        = 12 // X, Y, T as u32
)

var le = binary.LittleEndian

// ---------------------------------------------------------- gather ----

// encodeGather serializes one rank's computed grid — a batch slab or a
// stream window — as its density values plus the root layer t0 where it
// starts.
func encodeGather(rank, t0 int, data []float64) []byte {
	w := codec.NewWriter(gatherHeaderBytes + 8*len(data))
	w.U32(msgGather)
	w.U32(uint32(rank))
	w.U32(uint32(t0))
	w.U32(uint32(len(data)))
	for _, v := range data {
		w.F64(v)
	}
	return w.B
}

// decodeGather is the receiving side of encodeGather.
func decodeGather(msg []byte) (rank, t0 int, data []float64, err error) {
	r := codec.NewReader("dist", msg)
	if r.U32() != msgGather {
		return 0, 0, nil, fmt.Errorf("dist: not a gather message")
	}
	rank = int(r.U32())
	t0 = int(r.U32())
	data = make([]float64, r.Count(r.U32(), 8))
	for i := range data {
		data[i] = r.F64()
	}
	return rank, t0, data, r.Done()
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
	w := codec.NewWriter(28 + codec.SpecBytes + len(q.alg) + codec.PointBytes*len(q.pts))
	w.U32(msgEstimate)
	w.U32(uint32(q.rank))
	w.U32(uint32(q.threads))
	w.U64(uint64(q.normN))
	w.U32(uint32(len(q.alg)))
	w.U32(uint32(len(q.pts)))
	w.Spec(q.spec)
	w.Bytes([]byte(q.alg))
	w.Points(q.pts)
	return w.B
}

func decodeEstimate(msg []byte) (estimateReq, error) {
	r := codec.NewReader("dist", msg)
	if r.U32() != msgEstimate {
		return estimateReq{}, fmt.Errorf("dist: not an estimate message")
	}
	var q estimateReq
	q.rank = int(r.U32())
	q.threads = int(r.U32())
	normN := r.U64()
	algLen := int(r.U32())
	count := r.U32()
	q.spec = r.Spec()
	if algLen < 0 || algLen > 256 {
		return estimateReq{}, fmt.Errorf("dist: algorithm name of %d bytes", algLen)
	}
	q.alg = string(r.Bytes(algLen))
	q.pts = r.Points(count)
	if err := r.Done(); err != nil {
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
	w := codec.NewWriter(12 + len(phase) + len(text))
	w.U32(msgErr)
	w.U32(uint32(len(phase)))
	w.U32(uint32(len(text)))
	w.Bytes([]byte(phase))
	w.Bytes([]byte(text))
	return w.B
}

func decodeErr(msg []byte) (phase, text string, err error) {
	r := codec.NewReader("dist", msg)
	if r.U32() != msgErr {
		return "", "", fmt.Errorf("dist: not an error message")
	}
	pl := int(r.U32())
	tl := int(r.U32())
	if pl < 0 || pl > 256 || tl < 0 || tl > 1<<16 {
		return "", "", fmt.Errorf("dist: error message field lengths %d, %d out of range", pl, tl)
	}
	phase = string(r.Bytes(pl))
	text = string(r.Bytes(tl))
	return phase, text, r.Done()
}

func encodeOK(a, b int64) []byte {
	w := codec.NewWriter(20)
	w.U32(msgOK)
	w.I64(a)
	w.I64(b)
	return w.B
}

func decodeOK(msg []byte) (a, b int64, err error) {
	r := codec.NewReader("dist", msg)
	if r.U32() != msgOK {
		return 0, 0, fmt.Errorf("dist: not an ok message")
	}
	a, b = r.I64(), r.I64()
	return a, b, r.Done()
}

// --------------------------------------------------------- streams ----

func encodeStreamCreate(id uint64, threads int, spec grid.Spec) []byte {
	w := codec.NewWriter(16 + codec.SpecBytes)
	w.U32(msgStreamCreate)
	w.U64(id)
	w.U32(uint32(threads))
	w.Spec(spec)
	return w.B
}

func decodeStreamCreate(msg []byte) (id uint64, threads int, spec grid.Spec, err error) {
	r := codec.NewReader("dist", msg)
	if r.U32() != msgStreamCreate {
		return 0, 0, grid.Spec{}, fmt.Errorf("dist: not a stream-create message")
	}
	id = r.U64()
	threads = int(r.U32())
	spec = r.Spec()
	return id, threads, spec, r.Done()
}

func encodeStreamClose(id uint64) []byte {
	w := codec.NewWriter(12)
	w.U32(msgStreamClose)
	w.U64(id)
	return w.B
}

func decodeStreamClose(msg []byte) (id uint64, err error) {
	r := codec.NewReader("dist", msg)
	if r.U32() != msgStreamClose {
		return 0, fmt.Errorf("dist: not a stream-close message")
	}
	id = r.U64()
	return id, r.Done()
}

func encodeIngest(id uint64, pts []grid.Point) []byte {
	w := codec.NewWriter(16 + codec.PointBytes*len(pts))
	w.U32(msgIngest)
	w.U64(id)
	w.U32(uint32(len(pts)))
	w.Points(pts)
	return w.B
}

func decodeIngest(msg []byte) (id uint64, pts []grid.Point, err error) {
	r := codec.NewReader("dist", msg)
	if r.U32() != msgIngest {
		return 0, nil, fmt.Errorf("dist: not an ingest message")
	}
	id = r.U64()
	pts = r.Points(r.U32())
	return id, pts, r.Done()
}

func encodeAdvance(id uint64, k int) []byte {
	w := codec.NewWriter(20)
	w.U32(msgAdvance)
	w.U64(id)
	w.U64(uint64(k))
	return w.B
}

func decodeAdvance(msg []byte) (id uint64, k int, err error) {
	r := codec.NewReader("dist", msg)
	if r.U32() != msgAdvance {
		return 0, 0, fmt.Errorf("dist: not an advance message")
	}
	id = r.U64()
	kw := r.U64()
	if err := r.Done(); err != nil {
		return 0, 0, err
	}
	if kw > math.MaxInt32 {
		return 0, 0, fmt.Errorf("dist: advance of %d layers out of range", kw)
	}
	return id, int(kw), nil
}

// --------------------------------------------------------- queries ----

func encodeRegion(id uint64, b grid.Box) []byte {
	w := codec.NewWriter(60)
	w.U32(msgRegion)
	w.U64(id)
	w.I64(int64(b.X0))
	w.I64(int64(b.X1))
	w.I64(int64(b.Y0))
	w.I64(int64(b.Y1))
	w.I64(int64(b.T0))
	w.I64(int64(b.T1))
	return w.B
}

func decodeRegion(msg []byte) (id uint64, b grid.Box, err error) {
	r := codec.NewReader("dist", msg)
	if r.U32() != msgRegion {
		return 0, grid.Box{}, fmt.Errorf("dist: not a region message")
	}
	id = r.U64()
	f := [6]int64{r.I64(), r.I64(), r.I64(), r.I64(), r.I64(), r.I64()}
	if err := r.Done(); err != nil {
		return 0, grid.Box{}, err
	}
	for _, v := range f {
		if v < -codec.MaxDim || v > codec.MaxDim {
			return 0, grid.Box{}, fmt.Errorf("dist: region bound %d out of range", v)
		}
	}
	b = grid.Box{X0: int(f[0]), X1: int(f[1]), Y0: int(f[2]), Y1: int(f[3]), T0: int(f[4]), T1: int(f[5])}
	return id, b, nil
}

func encodeSum(v float64, rebuilds int64) []byte {
	w := codec.NewWriter(20)
	w.U32(msgSum)
	w.F64(v)
	w.I64(rebuilds)
	return w.B
}

func decodeSum(msg []byte) (v float64, rebuilds int64, err error) {
	r := codec.NewReader("dist", msg)
	if r.U32() != msgSum {
		return 0, 0, fmt.Errorf("dist: not a sum message")
	}
	v = r.F64()
	rebuilds = r.I64()
	return v, rebuilds, r.Done()
}

func encodeTopK(id uint64, k int, scale float64) []byte {
	w := codec.NewWriter(24)
	w.U32(msgTopK)
	w.U64(id)
	w.U32(uint32(k))
	w.F64(scale)
	return w.B
}

func decodeTopK(msg []byte) (id uint64, k int, scale float64, err error) {
	r := codec.NewReader("dist", msg)
	if r.U32() != msgTopK {
		return 0, 0, 0, fmt.Errorf("dist: not a topk message")
	}
	id = r.U64()
	kw := r.U32()
	scale = r.F64()
	if err := r.Done(); err != nil {
		return 0, 0, 0, err
	}
	if kw > 1<<24 {
		return 0, 0, 0, fmt.Errorf("dist: topk k=%d out of range", kw)
	}
	return id, int(kw), scale, nil
}

func encodeTopKAns(rebuilds int64, cands []grid.VoxelDensity) []byte {
	w := codec.NewWriter(16 + candidateBytes*len(cands))
	w.U32(msgTopKAns)
	w.I64(rebuilds)
	w.U32(uint32(len(cands)))
	for _, c := range cands {
		w.I64(int64(c.X))
		w.I64(int64(c.Y))
		w.I64(int64(c.T))
		w.F64(c.V)
	}
	return w.B
}

func decodeTopKAns(msg []byte) (rebuilds int64, cands []grid.VoxelDensity, err error) {
	r := codec.NewReader("dist", msg)
	if r.U32() != msgTopKAns {
		return 0, nil, fmt.Errorf("dist: not a topk answer")
	}
	rebuilds = r.I64()
	cands = make([]grid.VoxelDensity, r.Count(r.U32(), candidateBytes))
	for i := range cands {
		x, y, t := r.I64(), r.I64(), r.I64()
		v := r.F64()
		if x < -codec.MaxDim || x > codec.MaxDim || y < -codec.MaxDim || y > codec.MaxDim ||
			t < -codec.MaxDim || t > codec.MaxDim {
			return 0, nil, fmt.Errorf("dist: topk candidate out of range")
		}
		cands[i] = grid.VoxelDensity{X: int(x), Y: int(y), T: int(t), V: v}
	}
	return rebuilds, cands, r.Done()
}

func encodeSnapshot(id uint64) []byte {
	w := codec.NewWriter(12)
	w.U32(msgSnapshot)
	w.U64(id)
	return w.B
}

func decodeSnapshot(msg []byte) (id uint64, err error) {
	r := codec.NewReader("dist", msg)
	if r.U32() != msgSnapshot {
		return 0, fmt.Errorf("dist: not a snapshot message")
	}
	id = r.U64()
	return id, r.Done()
}

// voxel is one window voxel in logical coordinates.
type voxel struct{ X, Y, T int }

// inWindow reports whether v lies inside sp's voxel grid.
func inWindow(sp grid.Spec, v voxel) bool {
	return v.X >= 0 && v.X < sp.Gx && v.Y >= 0 && v.Y < sp.Gy && v.T >= 0 && v.T < sp.Gt
}

func encodeFetch(id uint64, vs []voxel) []byte {
	w := codec.NewWriter(16 + voxelBytes*len(vs))
	w.U32(msgFetch)
	w.U64(id)
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U32(uint32(v.X))
		w.U32(uint32(v.Y))
		w.U32(uint32(v.T))
	}
	return w.B
}

// decodeFetch leaves the coordinates unchecked: the rank range-checks them
// against its window.
func decodeFetch(msg []byte) (id uint64, vs []voxel, err error) {
	r := codec.NewReader("dist", msg)
	if r.U32() != msgFetch {
		return 0, nil, fmt.Errorf("dist: not a fetch message")
	}
	id = r.U64()
	vs = make([]voxel, r.Count(r.U32(), voxelBytes))
	for i := range vs {
		vs[i] = voxel{int(r.U32()), int(r.U32()), int(r.U32())}
	}
	return id, vs, r.Done()
}

func encodeFetchAns(vals []float64) []byte {
	w := codec.NewWriter(8 + 8*len(vals))
	w.U32(msgFetchAns)
	w.U32(uint32(len(vals)))
	for _, v := range vals {
		w.F64(v)
	}
	return w.B
}

func decodeFetchAns(msg []byte) ([]float64, error) {
	r := codec.NewReader("dist", msg)
	if r.U32() != msgFetchAns {
		return nil, fmt.Errorf("dist: not a fetch answer")
	}
	vals := make([]float64, r.Count(r.U32(), 8))
	for i := range vals {
		vals[i] = r.F64()
	}
	return vals, r.Done()
}

// encodePing builds a heartbeat probe; the rank echoes the nonce in a
// msgOK reply, proving the connection pairs requests with replies (a stale
// or crossed reply fails the nonce check, not just the transport).
func encodePing(nonce uint64) []byte {
	w := codec.NewWriter(12)
	w.U32(msgPing)
	w.U64(nonce)
	return w.B
}

func decodePing(msg []byte) (nonce uint64, err error) {
	r := codec.NewReader("dist", msg)
	if r.U32() != msgPing {
		return 0, fmt.Errorf("dist: not a ping message")
	}
	nonce = r.U64()
	return nonce, r.Done()
}
