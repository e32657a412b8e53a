package dist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

// wireCorpus returns one well-formed message of every protocol kind.
func wireCorpus(t testing.TB) [][]byte {
	spec, err := grid.NewSpec(grid.Domain{GX: 20, GY: 16, GT: 12}, 1, 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	pts := []grid.Point{{X: 1, Y: 2, T: 3}, {X: 4.5, Y: 6.25, T: 7.125}}
	return [][]byte{
		encodeGather(2, 5, []float64{1, 2.5, -3}),
		encodeEstimate(estimateReq{rank: 1, threads: 2, normN: 42, alg: "pb-sym", spec: spec, pts: pts}),
		encodeErr("scatter", "boom"),
		encodeOK(7, -1),
		encodeStreamCreate(9, 2, spec),
		encodeStreamClose(9),
		encodeIngest(9, pts),
		encodeAdvance(9, 3),
		encodeRegion(9, grid.Box{X0: 1, X1: 4, Y0: 0, Y1: 3, T0: 2, T1: 6}),
		encodeSum(0.25, 11),
		encodeTopK(9, 5, 0.5),
		encodeTopKAns(4, []grid.VoxelDensity{{X: 1, Y: 2, T: 3, V: 0.5}}),
		encodeSnapshot(9),
		encodePing(31),
		encodeFetch(9, []voxel{{1, 2, 3}, {19, 15, 11}}),
		encodeFetchAns([]float64{0.5, -1e-300}),
		encodeFetch(9, nil),
		encodeFetchAns(nil),
	}
}

// decodeAny runs the decoder for whatever kind the payload claims: the
// fuzzing entry point and the corpus tests' dispatcher (RankServer.handle
// dispatches on its own switch). Every arm must reject corrupt input with
// an error, never a panic or an unbounded allocation.
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

// TestDecodeAnyCorpus: every well-formed message decodes, and every strict
// prefix of it is rejected — a truncated frame can never decode as a valid
// shorter message of the same kind.
func TestDecodeAnyCorpus(t *testing.T) {
	for i, msg := range wireCorpus(t) {
		if err := decodeAny(msg); err != nil {
			t.Fatalf("corpus[%d] (kind %d): %v", i, le.Uint32(msg), err)
		}
		for cut := 0; cut < len(msg); cut++ {
			if err := decodeAny(msg[:cut]); err == nil {
				t.Fatalf("corpus[%d] (kind %d): truncation to %d/%d bytes decoded without error",
					i, le.Uint32(msg), cut, len(msg))
			}
		}
	}
}

// TestDecodeCorruptMessages rejects structurally corrupt payloads: trailing
// garbage, absurd element counts, unknown kinds, and non-finite spec fields.
func TestDecodeCorruptMessages(t *testing.T) {
	corpus := wireCorpus(t)
	for i, msg := range corpus {
		withTrailer := append(append([]byte(nil), msg...), 0xEE)
		if err := decodeAny(withTrailer); err == nil {
			t.Errorf("corpus[%d] (kind %d): trailing byte decoded without error", i, le.Uint32(msg))
		}
	}

	huge := encodeIngest(1, nil)
	le.PutUint32(huge[12:], 1<<31-1) // count says 2^31-1 points, zero bytes follow
	if err := decodeAny(huge); err == nil {
		t.Error("ingest with absurd point count decoded without error")
	}
	// A fetch (or its answer) whose count disagrees with the frame length
	// is refused before anything is allocated, in either direction.
	for _, count := range []uint32{0, 1, 3, 1<<32 - 1} {
		fetch := encodeFetch(1, []voxel{{1, 1, 1}, {2, 2, 2}})
		le.PutUint32(fetch[12:], count)
		if _, _, err := decodeFetch(fetch); err == nil {
			t.Errorf("fetch of 2 voxels claiming %d decoded without error", count)
		}
		ans := encodeFetchAns([]float64{1, 2})
		le.PutUint32(ans[4:], count)
		if _, err := decodeFetchAns(ans); err == nil {
			t.Errorf("fetch answer of 2 values claiming %d decoded without error", count)
		}
	}

	unknown := make([]byte, 8)
	le.PutUint32(unknown, 999)
	if err := decodeAny(unknown); err == nil {
		t.Error("unknown message kind decoded without error")
	}

	if err := decodeAny(nil); err == nil {
		t.Error("empty message decoded without error")
	}
}

// TestRankFetchBoundsChecked: a fetch naming any voxel outside the rank's
// window is refused with an attributed msgErr — never a panic, and never a
// partial answer — while in-window voxels read the raw ring values.
func TestRankFetchBoundsChecked(t *testing.T) {
	s := &RankServer{}
	streams := make(map[uint64]*rankStream)
	spec := testSpec(t, 12, 1)
	if _, _, err := decodeOK(s.handle(streams, encodeStreamCreate(1, 1, spec))); err != nil {
		t.Fatal(err)
	}
	defer streams[1].up.Release()
	pts := testPoints(200, spec.Domain, 3)
	if _, _, err := decodeOK(s.handle(streams, encodeIngest(1, pts))); err != nil {
		t.Fatal(err)
	}
	X, Y, T := spec.VoxelOf(pts[0])
	inside := voxel{X, Y, T} // an event's own voxel: certainly non-zero
	for _, bad := range []voxel{
		{-1, 0, 0}, {spec.Gx, 0, 0}, {0, spec.Gy, 0}, {0, 0, spec.Gt}, {0, 0, -1}, {1<<32 - 1, 1<<32 - 1, 1<<32 - 1},
	} {
		reply := s.handle(streams, encodeFetch(1, []voxel{inside, bad}))
		phase, _, err := decodeErr(reply)
		if err != nil || phase != "query" {
			t.Fatalf("fetch of %v: reply kind %d phase %q (%v), want a query msgErr", bad, le.Uint32(reply), phase, err)
		}
	}
	if _, _, err := decodeErr(s.handle(streams, encodeFetch(2, []voxel{inside}))); err != nil {
		t.Fatalf("fetch from an unknown stream: %v, want msgErr", err)
	}
	vals, err := decodeFetchAns(s.handle(streams, encodeFetch(1, []voxel{inside, {0, 0, 0}})))
	if err != nil {
		t.Fatal(err)
	}
	ring := streams[1].up.Ring()
	if vals[0] != ring.At(inside.X, inside.Y, inside.T) || vals[1] != ring.At(0, 0, 0) || vals[0] == 0 {
		t.Fatalf("fetched %v, ring holds %g and %g", vals, ring.At(inside.X, inside.Y, inside.T), ring.At(0, 0, 0))
	}
}

// FuzzDecode throws arbitrary bytes at the dispatching decoder: it must
// never panic and never allocate unboundedly, whatever the input claims.
// The same bytes go through the frame prefix check tcpConn.Recv runs,
// which must never pass an empty or oversized length.
func FuzzDecode(f *testing.F) {
	for _, msg := range wireCorpus(f) {
		f.Add(msg)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = decodeAny(data) // must not panic
		if n, err := readFrameLen(bytes.NewReader(data)); err == nil && (n == 0 || n > maxFrameBytes) {
			t.Fatalf("frame prefix %d passed the length check", n)
		}
	})
}

// limitedReader fails the test if more than the framed prefix is read,
// proving the frame layer rejects an oversized length announcement before
// attempting to allocate or read the payload.
type limitedReader struct {
	t    *testing.T
	data []byte
	off  int
}

func (r *limitedReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		r.t.Fatal("frame layer read past the length prefix of an invalid frame")
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// TestOversizedFramePrefixErrors: a length prefix above maxFrameBytes (or
// zero) must fail before any payload is read or allocated — a corrupt or
// malicious peer cannot make the receiver allocate gigabytes.
func TestOversizedFramePrefixErrors(t *testing.T) {
	for _, n := range []uint32{0, maxFrameBytes + 1, 1<<32 - 1} {
		prefix := make([]byte, frameHeaderBytes)
		le.PutUint32(prefix, n)
		if _, err := readFrame(&limitedReader{t: t, data: prefix}); err == nil {
			t.Errorf("frame with declared length %d read without error", n)
		}
	}
}

// TestTruncatedFrame: a frame whose payload is shorter than its prefix
// announces must surface an unexpected-EOF error, not a short message.
func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte("hello wire")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		if _, err := readFrame(bytes.NewReader(whole[:cut])); err == nil {
			t.Fatalf("frame truncated to %d/%d bytes read without error", cut, len(whole))
		}
	}
	msg, err := readFrame(bytes.NewReader(whole))
	if err != nil || string(msg) != "hello wire" {
		t.Fatalf("round trip: %q, %v", msg, err)
	}
	if _, err := readFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

// TestRankCapsWireThreads: a frame claiming 2^32-1 worker threads must not
// make a rank allocate per-worker replicas (pb-sym-dr), subdomain scratches
// (pb-sym-dd) or strip scratches (a stream's updater) for them. The rank
// runs each request on at most its own cores: the estimates answer bitwise
// what the same estimate gives at GOMAXPROCS threads, and the stream's
// updater splits its applies over at most GOMAXPROCS strips.
func TestRankCapsWireThreads(t *testing.T) {
	const hostile = 1<<32 - 1
	own := runtime.GOMAXPROCS(0)
	n := NewNetwork()
	s, err := ListenRank(n, "inproc://hostile-threads", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := n.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	exchange := func(frame []byte) []byte {
		t.Helper()
		if err := c.Send(ctx, frame); err != nil {
			t.Fatal(err)
		}
		reply, err := c.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}

	spec := testSpec(t, 12, 1)
	pts := testPoints(300, spec.Domain, 4)
	for _, alg := range []string{core.AlgPBSYMDD, core.AlgPBSYMDR} {
		frame := encodeEstimate(estimateReq{threads: hostile, normN: len(pts), alg: alg, spec: spec, pts: pts})
		if got := le.Uint32(frame[8:]); got != hostile {
			t.Fatalf("frame carries %d threads, want %d", got, uint32(hostile))
		}
		_, _, data, err := decodeGather(exchange(frame))
		if err != nil {
			t.Fatalf("%s with %d threads: %v", alg, uint32(hostile), err)
		}
		want, err := core.Estimate(alg, pts, spec, core.Options{Threads: own, NormN: len(pts), NoSort: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range want.Grid.Data {
			if data[i] != v {
				t.Fatalf("%s: voxel %d = %g, want %g (the estimate at %d threads)", alg, i, data[i], v, own)
			}
		}
		want.Grid.Release()
	}

	create := encodeStreamCreate(1, hostile, spec)
	if _, _, err := decodeOK(exchange(create)); err != nil {
		t.Fatalf("stream create with %d threads: %v", uint32(hostile), err)
	}
	streams := make(map[uint64]*rankStream)
	for id, threads := range map[uint64]int{2: hostile, 3: 0} {
		if _, _, err := decodeOK(s.handle(streams, encodeStreamCreate(id, threads, spec))); err != nil {
			t.Fatal(err)
		}
		if got := streams[id].up.Stats().Threads; got != own {
			t.Fatalf("stream created with %d threads runs %d strips, want the rank's %d", threads, got, own)
		}
		streams[id].up.Release()
	}
}
