package wal

import "testing"

// TestDecodeRecordHostileCount: an ingest payload whose point count times
// 24 wraps a 32-bit int to 8 bytes (178956971 × 24 = 2^32 + 8) is refused
// with an error. A multiplied length check lets it through on 386, and
// the allocation it sizes panics.
func TestDecodeRecordHostileCount(t *testing.T) {
	payload := make([]byte, 24)
	le.PutUint32(payload, uint32(KindIngest))
	le.PutUint64(payload[4:], 1)
	le.PutUint32(payload[12:], 178956971)
	if rec, err := DecodeRecord(payload); err == nil {
		t.Fatalf("ingest claiming 178956971 points in 8 bytes decoded: %d points", len(rec.Points))
	}
}
