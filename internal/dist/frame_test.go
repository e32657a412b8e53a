package dist

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// readFrame reads one length-prefixed message. An oversized prefix is an
// error before any payload allocation happens.
func readFrame(r io.Reader) ([]byte, error) {
	n, err := readFrameLen(r)
	if err != nil {
		return nil, err
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// tcpPair returns the receiving end of a loopback TCP connection (the
// transport's own tcpConn, as a rank or coordinator holds it) and a raw
// socket that plays the peer, so a test can put any bytes on the wire.
func tcpPair(t *testing.T, rpc time.Duration) (Conn, net.Conn) {
	t.Helper()
	tr := &TCPTransport{Timeouts: Timeouts{RPC: rpc}}
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c, err := ln.Accept()
	if err != nil {
		peer.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		peer.Close()
	})
	return c, peer
}

func framePrefix(n uint32) []byte {
	p := make([]byte, frameHeaderBytes)
	le.PutUint32(p, n)
	return p
}

// TestTCPRecvRejectsBadPrefix: tcpConn.Recv refuses a zero or oversized
// length prefix as soon as it has the four bytes. The peer keeps the
// connection open and the RPC timeout is an hour, so a Recv that waited
// for (or allocated) the announced payload would hang here, not pass.
func TestTCPRecvRejectsBadPrefix(t *testing.T) {
	for _, n := range []uint32{0, maxFrameBytes + 1, 1<<32 - 1} {
		c, peer := tcpPair(t, time.Hour)
		if _, err := peer.Write(framePrefix(n)); err != nil {
			t.Fatal(err)
		}
		if msg, err := c.Recv(context.Background()); err == nil {
			t.Errorf("prefix %d: Recv returned %d bytes without error", n, len(msg))
		}
	}
}

// TestTCPRecvTruncatedPayload: a peer that closes mid-payload surfaces as
// an unexpected EOF, not a short message.
func TestTCPRecvTruncatedPayload(t *testing.T) {
	c, peer := tcpPair(t, time.Hour)
	if _, err := peer.Write(append(framePrefix(10), "abc"...)); err != nil {
		t.Fatal(err)
	}
	peer.Close()
	if _, err := c.Recv(context.Background()); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: %v, want %v", err, io.ErrUnexpectedEOF)
	}
}

// TestTCPRecvStalledPayload: once the prefix arrived, a payload that stops
// coming fails within Timeouts.RPC even though the caller's context has no
// deadline.
func TestTCPRecvStalledPayload(t *testing.T) {
	c, peer := tcpPair(t, 50*time.Millisecond)
	if _, err := peer.Write(append(framePrefix(10), "abc"...)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Recv(context.Background())
	var timeout interface{ Timeout() bool }
	if !errors.As(err, &timeout) || !timeout.Timeout() {
		t.Fatalf("stalled payload: %v, want a timeout", err)
	}
}

// TestTCPRecvPrefixWaitsUnbounded: the wait for a frame's prefix is bounded
// by the caller's context alone, not by Timeouts.RPC, so an idle
// connection survives; the frame that then arrives is read whole.
func TestTCPRecvPrefixWaitsUnbounded(t *testing.T) {
	c, peer := tcpPair(t, 20*time.Millisecond)
	go func() {
		time.Sleep(150 * time.Millisecond)
		var buf bytes.Buffer
		if err := writeFrame(&buf, []byte("late frame")); err == nil {
			peer.Write(buf.Bytes())
		}
	}()
	msg, err := c.Recv(context.Background())
	if err != nil || string(msg) != "late frame" {
		t.Fatalf("Recv after an idle wait: %q, %v", msg, err)
	}
}

// recvAllocBudget is tcpConn.Recv's allocations per frame under a context
// without a deadline, as measured with one context hook per frame (the
// payload bounded by the socket deadline, not a derived context): the
// payload buffer plus the hook's own bookkeeping.
const recvAllocBudget = 5

// TestTCPRecvAllocs pins Recv's allocations per frame. The frames are all
// on the socket before counting starts, so the peer allocates nothing
// while AllocsPerRun counts.
func TestTCPRecvAllocs(t *testing.T) {
	const runs = 50
	c, peer := tcpPair(t, time.Hour)
	var wire bytes.Buffer
	for i := 0; i <= runs; i++ {
		if err := writeFrame(&wire, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := peer.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var err error
	allocs := testing.AllocsPerRun(runs, func() {
		if _, e := c.Recv(ctx); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tcpConn.Recv: %.1f allocs per frame (budget %d)", allocs, recvAllocBudget)
	if allocs > recvAllocBudget {
		t.Errorf("tcpConn.Recv allocates %.1f times per frame, budget %d", allocs, recvAllocBudget)
	}
}
