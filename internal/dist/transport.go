package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The transport layer moves whole messages between a shard coordinator and
// its ranks. There is exactly one wire protocol (codec.go, wire.go) and two
// transports behind one interface:
//
//   - TCPTransport frames messages with a u32 length prefix over real
//     sockets — ranks in other processes or on other machines;
//   - InprocTransport hands the encoded []byte over a channel — ranks in
//     the same process skip the kernel round trip but still pay (and
//     count) the exact serialized bytes, so communication stats mean the
//     same thing on both paths.
//
// The split mirrors the gRPC proxy / in-process bridge pattern: callers
// pick a transport by address scheme (see Network) and everything above the
// Conn interface is transport-agnostic.

// Timeouts bounds the transport's blocking operations. The zero value of
// any field selects its default; explicit negative values are rejected by
// Validate so a mistyped flag cannot silently disable failure detection.
type Timeouts struct {
	// Dial bounds connection establishment (default 5s).
	Dial time.Duration
	// RPC bounds one request/response exchange with a rank, end to end
	// (default 30s). Waiting for the *next* request on an idle server
	// connection is deliberately unbounded.
	RPC time.Duration
	// Heartbeat bounds one health-probe ping exchange (default 1s) —
	// deliberately much tighter than RPC, so a dead rank is detected fast
	// without declaring a slow estimation dead.
	Heartbeat time.Duration
}

// Validate rejects negative timeouts. Zero fields are allowed and mean
// "use the default"; callers that want to reject zero too (e.g. flag
// parsing) should check before constructing the struct.
func (t Timeouts) Validate() error {
	if t.Dial < 0 {
		return fmt.Errorf("dist: dial timeout must be positive, got %v", t.Dial)
	}
	if t.RPC < 0 {
		return fmt.Errorf("dist: rpc timeout must be positive, got %v", t.RPC)
	}
	if t.Heartbeat < 0 {
		return fmt.Errorf("dist: heartbeat timeout must be positive, got %v", t.Heartbeat)
	}
	return nil
}

// withDefaults fills zero fields with the package defaults.
func (t Timeouts) withDefaults() Timeouts {
	if t.Dial == 0 {
		t.Dial = 5 * time.Second
	}
	if t.RPC == 0 {
		t.RPC = 30 * time.Second
	}
	if t.Heartbeat == 0 {
		t.Heartbeat = time.Second
	}
	return t
}

// Conn is one bidirectional message pipe. Send and Recv move whole
// messages and honor the context's deadline and cancellation; a Conn whose
// Send or Recv was interrupted mid-frame is poisoned and must be closed,
// not reused (the frame boundary is lost). Implementations are safe for
// one concurrent sender plus one concurrent receiver (the request/response
// discipline of rankConn serializes callers anyway).
type Conn interface {
	Send(ctx context.Context, msg []byte) error
	Recv(ctx context.Context) ([]byte, error)
	Close() error
}

// Listener accepts inbound rank connections.
type Listener interface {
	Accept() (Conn, error)
	Addr() string
	Close() error
}

// Transport can host rank endpoints and dial them.
type Transport interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

// errClosed is returned by operations on a closed inproc endpoint.
var errClosed = errors.New("dist: connection closed")

// ---------------------------------------------------------------- TCP ----

// TCPTransport carries frames over real TCP sockets. The context passed to
// Send/Recv bounds each operation; waiting for the *next* frame's length
// prefix under a background context is deliberately unbounded, so idle
// connections survive and a slow estimation on the far side does not kill
// the link — but a peer that dies mid-frame fails within Timeouts.RPC
// instead of hanging forever.
type TCPTransport struct {
	// Timeouts bounds dialing and mid-frame reads. Zero fields default
	// (Dial 5s, RPC 30s, Heartbeat 1s).
	Timeouts Timeouts
}

func (t *TCPTransport) eff() Timeouts { return t.Timeouts.withDefaults() }

// Listen binds a real socket; addr ":0" picks a free port (Addr reports it).
func (t *TCPTransport) Listen(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{ln: ln, t: t}, nil
}

func (t *TCPTransport) Dial(addr string) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, t.eff().Dial)
	if err != nil {
		return nil, err
	}
	return &tcpConn{c: c, t: t}, nil
}

type tcpListener struct {
	ln net.Listener
	t  *TCPTransport
}

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return &tcpConn{c: c, t: l.t}, nil
}

func (l *tcpListener) Addr() string { return l.ln.Addr().String() }
func (l *tcpListener) Close() error { return l.ln.Close() }

type tcpConn struct {
	c net.Conn
	t *TCPTransport
}

// withCtx runs one socket operation under the context: the socket deadline
// mirrors the context's, and a cancellation mid-operation forces the
// socket deadline into the past, which unblocks the pending read or write.
// An interrupted operation leaves the connection poisoned (mid-frame);
// callers discard the Conn on any error, so no deadline cleanup beyond the
// next operation's reset is needed.
func (c *tcpConn) withCtx(ctx context.Context, op func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok {
		if err := c.c.SetDeadline(d); err != nil {
			return err
		}
	} else if err := c.c.SetDeadline(time.Time{}); err != nil {
		return err
	}
	stop := context.AfterFunc(ctx, func() { c.c.SetDeadline(time.Unix(1, 0)) })
	err := op()
	stop()
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

func (c *tcpConn) Send(ctx context.Context, msg []byte) error {
	return c.withCtx(ctx, func() error { return writeFrame(c.c, msg) })
}

func (c *tcpConn) Recv(ctx context.Context) ([]byte, error) {
	// The length prefix may legitimately take long to arrive (idle server
	// connection, busy peer): it waits under the caller's context alone.
	// Once the prefix arrived the rest of the frame should follow
	// promptly, so the payload read is additionally bounded by the RPC
	// timeout, through the socket deadline, when the context has none.
	var msg []byte
	if err := c.withCtx(ctx, func() error {
		n, err := readFrameLen(c.c)
		if err != nil {
			return err
		}
		if _, ok := ctx.Deadline(); !ok {
			if err := c.c.SetDeadline(time.Now().Add(c.t.eff().RPC)); err != nil {
				return err
			}
			// A cancellation that landed before the new deadline was set
			// had its past deadline overwritten; later ones follow it.
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		msg = make([]byte, n)
		_, err = io.ReadFull(c.c, msg)
		return err
	}); err != nil {
		return nil, err
	}
	return msg, nil
}

func (c *tcpConn) Close() error { return c.c.Close() }

// ------------------------------------------------------------- inproc ----

// InprocTransport connects ranks living in the same process: Send passes
// the encoded message through a channel with zero copies. Encoders allocate
// a fresh buffer per message and never reuse it after Send, which is what
// makes the hand-off safe.
type InprocTransport struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
}

func NewInprocTransport() *InprocTransport {
	return &InprocTransport{listeners: make(map[string]*inprocListener)}
}

func (t *InprocTransport) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.listeners[addr]; ok {
		return nil, fmt.Errorf("dist: inproc address %q already bound", addr)
	}
	l := &inprocListener{t: t, addr: addr, accept: make(chan *inprocConn), done: make(chan struct{})}
	t.listeners[addr] = l
	return l, nil
}

func (t *InprocTransport) Dial(addr string) (Conn, error) {
	t.mu.Lock()
	l := t.listeners[addr]
	t.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("dist: no inproc listener at %q", addr)
	}
	a, b := inprocPipe()
	select {
	case l.accept <- b:
		return a, nil
	case <-l.done:
		return nil, fmt.Errorf("dist: inproc listener at %q closed", addr)
	}
}

type inprocListener struct {
	t      *InprocTransport
	addr   string
	accept chan *inprocConn
	done   chan struct{}
	once   sync.Once
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, errClosed
	}
}

func (l *inprocListener) Addr() string { return l.addr }

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.t.mu.Lock()
		delete(l.t.listeners, l.addr)
		l.t.mu.Unlock()
	})
	return nil
}

// inprocPipe builds two connected endpoints. Each direction is a small
// buffered channel: the request/response discipline keeps at most one
// message in flight per direction, the buffer just decouples Send from the
// peer's Recv scheduling.
func inprocPipe() (a, b *inprocConn) {
	ab := make(chan []byte, 4)
	ba := make(chan []byte, 4)
	done := make(chan struct{})
	var once sync.Once
	a = &inprocConn{out: ab, in: ba, done: done, once: &once}
	b = &inprocConn{out: ba, in: ab, done: done, once: &once}
	return a, b
}

type inprocConn struct {
	out  chan []byte
	in   chan []byte
	done chan struct{}
	once *sync.Once
}

func (c *inprocConn) Send(ctx context.Context, msg []byte) error {
	select {
	case c.out <- msg:
		return nil
	case <-c.done:
		return errClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *inprocConn) Recv(ctx context.Context) ([]byte, error) {
	select {
	case msg := <-c.in:
		return msg, nil
	case <-c.done:
		// Drain anything handed over before the close raced in.
		select {
		case msg := <-c.in:
			return msg, nil
		default:
			return nil, errClosed
		}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (c *inprocConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

// ------------------------------------------------------------ network ----

// Network bundles the two transports behind address-scheme dispatch:
// "inproc://name" stays in-process, anything else is a TCP host:port. One
// Network per process is typical; inproc names are scoped to it. Network
// itself satisfies Transport, so it can be wrapped, as the fault tests
// wrap it in a fault-injecting transport (chaos_test.go).
type Network struct {
	TCP    TCPTransport
	inproc *InprocTransport
}

func NewNetwork() *Network {
	return &Network{inproc: NewInprocTransport()}
}

const inprocScheme = "inproc://"

func (n *Network) transport(addr string) (Transport, string) {
	if name, ok := strings.CutPrefix(addr, inprocScheme); ok {
		return n.inproc, name
	}
	return &n.TCP, addr
}

// Listen hosts a rank endpoint at addr, picking the transport by scheme.
func (n *Network) Listen(addr string) (Listener, error) {
	t, a := n.transport(addr)
	ln, err := t.Listen(a)
	if err != nil {
		return nil, err
	}
	if t == n.inproc {
		return prefixedListener{ln}, nil
	}
	return ln, nil
}

// Dial connects to a rank endpoint, picking the transport by scheme.
func (n *Network) Dial(addr string) (Conn, error) {
	t, a := n.transport(addr)
	return t.Dial(a)
}

// prefixedListener re-attaches the inproc:// scheme to Addr so a dial of
// the reported address round-trips through the scheme dispatch.
type prefixedListener struct{ Listener }

func (l prefixedListener) Addr() string { return inprocScheme + l.Listener.Addr() }

// ----------------------------------------------------------- counting ----

// countingConn measures the bytes a connection moves, including the frame
// prefix, so TCP and inproc report identical numbers for identical message
// sequences. The counters live in the owning rankConn (as pointers here),
// so byte totals accumulate across reconnects. Counters are atomics:
// metrics endpoints read them while calls are in flight.
type countingConn struct {
	c          Conn
	sent, recv *atomic.Int64
}

func (c *countingConn) Send(ctx context.Context, msg []byte) error {
	if err := c.c.Send(ctx, msg); err != nil {
		return err
	}
	c.sent.Add(int64(len(msg)) + frameHeaderBytes)
	return nil
}

func (c *countingConn) Recv(ctx context.Context) ([]byte, error) {
	msg, err := c.c.Recv(ctx)
	if err != nil {
		return nil, err
	}
	c.recv.Add(int64(len(msg)) + frameHeaderBytes)
	return msg, nil
}

func (c *countingConn) Close() error { return c.c.Close() }
