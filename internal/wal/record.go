package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/codec"
	"repro/internal/grid"
)

// record.go is the journal's record format: each record's payload uses
// internal/codec's field encodings and strict reader, shared with the
// shard wire (internal/dist), inside a CRC32-C frame so torn or
// bit-flipped tails are detected instead of replayed.
//
// Frame layout (little-endian):
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//
// Payload layout:
//
//	u32 kind | u64 lsn | body
//
//	create:  body = spec (10 f64 + 6 i64 = 128 bytes)
//	ingest:  body = u32 count, then count × (x, y, t f64)
//	advance: body = t f64

// Kind identifies a journaled stream mutation.
type Kind uint32

const (
	// KindCreate opens a stream: the body is the window's creation spec
	// (OT == 0). It is always the journal's first record (LSN 1).
	KindCreate Kind = 1
	// KindIngest appends a batch of events to the live window.
	KindIngest Kind = 2
	// KindAdvance slides the window forward to cover time T.
	KindAdvance Kind = 3
)

func (k Kind) String() string {
	switch k {
	case KindCreate:
		return "create"
	case KindIngest:
		return "ingest"
	case KindAdvance:
		return "advance"
	}
	return fmt.Sprintf("kind(%d)", uint32(k))
}

// Record is one journaled stream mutation. Exactly one of the payload
// fields is meaningful, selected by Kind.
type Record struct {
	LSN  uint64
	Kind Kind

	Spec   grid.Spec    // KindCreate: the window's creation spec
	Points []grid.Point // KindIngest: the ingested batch
	T      float64      // KindAdvance: the advance target time
}

const (
	frameHeaderBytes = 8       // u32 payloadLen + u32 crc
	maxRecordBytes   = 1 << 26 // bounds a decoded payload length (64 MiB)
)

var (
	le       = binary.LittleEndian
	crcTable = crc32.MakeTable(crc32.Castagnoli)
)

// encodePayload serializes a record's payload (kind, lsn, body).
func encodePayload(rec Record) ([]byte, error) {
	switch rec.Kind {
	case KindCreate:
		w := codec.NewWriter(12 + codec.SpecBytes)
		w.U32(uint32(rec.Kind))
		w.U64(rec.LSN)
		w.Spec(rec.Spec)
		return w.B, nil
	case KindIngest:
		if n := len(rec.Points); 16+n*codec.PointBytes > maxRecordBytes {
			return nil, fmt.Errorf("wal: ingest batch of %d events exceeds the %d-byte record bound", n, maxRecordBytes)
		}
		w := codec.NewWriter(16 + len(rec.Points)*codec.PointBytes)
		w.U32(uint32(rec.Kind))
		w.U64(rec.LSN)
		w.U32(uint32(len(rec.Points)))
		w.Points(rec.Points)
		return w.B, nil
	case KindAdvance:
		w := codec.NewWriter(20)
		w.U32(uint32(rec.Kind))
		w.U64(rec.LSN)
		w.F64(rec.T)
		return w.B, nil
	}
	return nil, fmt.Errorf("wal: unknown record kind %d", rec.Kind)
}

// appendFrame appends the CRC-framed encoding of rec to buf.
func appendFrame(buf []byte, rec Record) ([]byte, error) {
	payload, err := encodePayload(rec)
	if err != nil {
		return nil, err
	}
	buf = le.AppendUint32(buf, uint32(len(payload)))
	buf = le.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...), nil
}

// DecodeRecord strictly decodes one record payload (the bytes inside a CRC
// frame). Every malformed input — wrong length, hostile counts, out-of-range
// spec fields, trailing bytes — is rejected with an error, never a panic;
// FuzzWALDecode holds it to that.
func DecodeRecord(payload []byte) (Record, error) {
	r := codec.NewReader("wal", payload)
	var rec Record
	rec.Kind = Kind(r.U32())
	rec.LSN = r.U64()
	if r.Err() == nil && rec.LSN == 0 {
		return Record{}, fmt.Errorf("wal: record has LSN 0 (LSNs start at 1)")
	}
	switch rec.Kind {
	case KindCreate:
		rec.Spec = r.Spec()
		if r.Err() == nil && rec.Spec.OT < 0 {
			return Record{}, fmt.Errorf("wal: create record with frame offset %d < 0", rec.Spec.OT)
		}
	case KindIngest:
		rec.Points = r.Points(r.U32())
	case KindAdvance:
		rec.T = r.F64()
		if r.Err() == nil && math.IsNaN(rec.T) {
			return Record{}, fmt.Errorf("wal: advance record with NaN target")
		}
	default:
		if r.Err() == nil {
			return Record{}, fmt.Errorf("wal: unknown record kind %d", uint32(rec.Kind))
		}
	}
	if err := r.Done(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// peekLSN extracts the kind and LSN from a payload without decoding the
// body, so the recovery scan can skip snapshot-covered records cheaply.
func peekLSN(payload []byte) (Kind, uint64, error) {
	if len(payload) < 12 {
		return 0, 0, fmt.Errorf("wal: truncated record (%d bytes)", len(payload))
	}
	return Kind(le.Uint32(payload)), le.Uint64(payload[4:]), nil
}
