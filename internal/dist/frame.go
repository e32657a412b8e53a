package dist

import (
	"fmt"
	"io"
)

// Frames on the byte-stream transport: every message is prefixed with its
// u32 little-endian payload length. The prefix is the only framing state, so
// a reader that loses sync fails loudly (length sanity check) instead of
// silently misparsing.
const (
	frameHeaderBytes = 4

	// maxFrameBytes bounds a single message. A hostile or corrupt length
	// prefix must be rejected *before* the payload buffer is allocated —
	// otherwise four bytes of garbage could demand gigabytes. 1 GiB admits
	// the largest slab-grid gathers the benchmarks exercise with room to
	// spare while keeping the allocation bounded.
	maxFrameBytes = 1 << 30
)

// writeFrame writes one length-prefixed message.
func writeFrame(w io.Writer, msg []byte) error {
	if len(msg) > maxFrameBytes {
		return fmt.Errorf("dist: frame of %d bytes exceeds the %d-byte limit", len(msg), maxFrameBytes)
	}
	var hdr [frameHeaderBytes]byte
	le.PutUint32(hdr[:], uint32(len(msg)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(msg)
	return err
}

// readFrameLen reads one frame's length prefix and checks it: an empty or
// oversized frame is an error before any payload allocation happens. A
// read error comes back unwrapped (io.EOF on a clean close between
// frames).
func readFrameLen(r io.Reader) (uint32, error) {
	var hdr [frameHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := le.Uint32(hdr[:])
	if n == 0 {
		return 0, fmt.Errorf("dist: empty frame")
	}
	if n > maxFrameBytes {
		return 0, fmt.Errorf("dist: frame prefix announces %d bytes, limit is %d", n, maxFrameBytes)
	}
	return n, nil
}
