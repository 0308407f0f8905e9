// Package vnet is a deterministic virtual network for one simulated board.
//
// It stands in for the building's IT network: the paper's web interface
// listens on TCP port 8080, and administrators (or attackers) reach it from
// the outside. Real sockets would make experiments racy; vnet keeps byte
// streams entirely in memory and integrates with the virtual clock, so an
// experiment can inject an HTTP request at exactly t = 90s of virtual time
// and observe the response deterministically.
//
// The package is intentionally passive: it owns buffers and wakeup callbacks
// but never blocks. Simulated processes block *in their kernel*, which
// registers a waiter callback here; the host-side test harness reads and
// writes directly between engine slices or from clock callbacks.
//
// It also recycles what a connection-per-exchange workload would otherwise
// allocate on every exchange. Bytes a read returns are valid until the next
// read on the same stream (BoardRead, HostConn.ReadAll) or, on the bus,
// until the next Flush (BusConn.ReadAll). A Conn both of whose ends have
// closed, and a BusConn its owner has closed, go back to a free list;
// HostConn handles are generation-checked so a stale one acts closed.
package vnet

import (
	"errors"
	"fmt"
)

// Port addresses a listener on the board, like a TCP port.
type Port uint16

// Network errors.
var (
	ErrPortInUse   = errors.New("vnet: port already in use")
	ErrConnClosed  = errors.New("vnet: connection closed")
	ErrNoListener  = errors.New("vnet: connection refused (no listener)")
	ErrWouldBlock  = errors.New("vnet: operation would block")
	ErrBacklogFull = errors.New("vnet: listener backlog full")
)

// backlogMax bounds pending un-accepted connections per listener.
const backlogMax = 16

// halfStream is one direction of a connection.
//
// Reads hand out one of two alternating buffers: a read returns the pending
// bytes in one buffer and leaves later writes to land in the other. The
// bytes a read returns therefore stay valid until the next read on the same
// stream, which may overwrite them; a reader that keeps them longer copies.
// A stream reaches its steady-state pair of buffers after its first two
// reads and allocates nothing after that.
type halfStream struct {
	buf    []byte // pending bytes, oldest first
	spare  []byte // the buffer the last read handed out
	closed bool
	// onReadable fires (once) with readToken when data or EOF arrives while
	// a reader waits.
	onReadable func(token uint64)
	readToken  uint64
}

func (h *halfStream) write(p []byte) error {
	if h.closed {
		return ErrConnClosed
	}
	h.buf = append(h.buf, p...)
	h.wake()
	return nil
}

func (h *halfStream) wake() {
	if h.onReadable != nil {
		fn := h.onReadable
		h.onReadable = nil
		fn(h.readToken)
	}
}

// read drains up to max bytes; returns ErrWouldBlock when empty and open,
// and (nil, ErrConnClosed) when empty and closed. The returned bytes are
// valid until the next read.
func (h *halfStream) read(max int) ([]byte, error) {
	if len(h.buf) == 0 {
		if h.closed {
			return nil, ErrConnClosed
		}
		return nil, ErrWouldBlock
	}
	n := len(h.buf)
	if max > 0 && max < n {
		n = max
	}
	if n == len(h.buf) {
		// Full drain: hand the pending buffer out and let later writes fill
		// the other one.
		out := h.buf
		h.buf, h.spare = h.spare[:0], out
		return out, nil
	}
	out := append(h.spare[:0], h.buf[:n]...)
	h.buf = h.buf[:copy(h.buf, h.buf[n:])]
	h.spare = out
	return out, nil
}

// reset empties the stream for a recycled connection, keeping both buffers.
func (h *halfStream) reset() {
	h.buf, h.spare = h.buf[:0], h.spare[:0]
	h.closed = false
	h.onReadable, h.readToken = nil, 0
}

// Conn is a bidirectional in-memory stream: the board end, which kernels
// hold, with the host end's state alongside it. Each end reads from its
// inbound halfStream and writes to the peer's.
//
// A Conn is recycled: once both BoardClose and the host's HostConn.Close
// have run, it returns to its Stack's free list and a later Dial reuses it
// under a fresh id. The board side must not touch a Conn after BoardClose;
// host handles are generation-checked (see HostConn).
type Conn struct {
	id       uint64
	gen      uint64 // bumped on recycle; stale HostConns carry an older one
	stack    *Stack
	toBoard  halfStream // host writes, board reads
	toHost   halfStream // board writes, host reads
	refused  bool
	accepted bool

	boardClosed bool
	hostClosed  bool
}

// ID returns a stable identifier for tracing. Ids keep increasing across
// recycling: a reused Conn gets the next id, never its old one.
func (c *Conn) ID() uint64 { return c.id }

// Listener is a bound port with a backlog of pending connections.
type Listener struct {
	port    Port
	backlog []*Conn
	// onConn fires (once) with connToken when a connection arrives while an
	// acceptor waits.
	onConn    func(token uint64)
	connToken uint64
	closed    bool
}

// Port returns the bound port.
func (l *Listener) Port() Port { return l.port }

// Stack is the per-board network. All methods must run on the engine
// goroutine (kernel traps, clock callbacks, or between Run slices).
//
// free holds closed connections for reuse. A Conn joins it only when both
// ends have closed, so it never holds more connections than the board and
// its peers had open at once.
type Stack struct {
	listeners map[Port]*Listener
	nextConn  uint64
	free      []*Conn
}

// NewStack returns an empty network stack.
func NewStack() *Stack {
	return &Stack{listeners: make(map[Port]*Listener), nextConn: 1}
}

// Listen binds a port. Kernels call this on behalf of a simulated process.
func (s *Stack) Listen(port Port) (*Listener, error) {
	if _, used := s.listeners[port]; used {
		return nil, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	l := &Listener{port: port}
	s.listeners[port] = l
	return l, nil
}

// CloseListener unbinds a port and refuses its backlog.
func (s *Stack) CloseListener(l *Listener) {
	if l.closed {
		return
	}
	l.closed = true
	delete(s.listeners, l.port)
	for _, c := range l.backlog {
		c.refused = true
		c.toHost.closed = true
		c.toHost.wake()
	}
	l.backlog = nil
}

// Dial connects the host side (an administrator's browser, an attacker's
// tool) to a board port. The returned HostConn is used directly by the test
// harness; the board side surfaces through Listener accept.
func (s *Stack) Dial(port Port) (HostConn, error) {
	l, ok := s.listeners[port]
	if !ok || l.closed {
		return HostConn{}, fmt.Errorf("%w: port %d", ErrNoListener, port)
	}
	if len(l.backlog) >= backlogMax {
		return HostConn{}, fmt.Errorf("%w: port %d", ErrBacklogFull, port)
	}
	var c *Conn
	if n := len(s.free); n > 0 {
		c = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		c = &Conn{stack: s}
	}
	c.id = s.nextConn
	s.nextConn++
	l.backlog = append(l.backlog, c)
	if l.onConn != nil {
		fn := l.onConn
		l.onConn = nil
		fn(l.connToken)
	}
	return HostConn{c: c, gen: c.gen}, nil
}

// recycle returns a connection both ends have closed to the free list. The
// generation bump turns every outstanding HostConn for it stale.
func (s *Stack) recycle(c *Conn) {
	c.gen++
	c.toBoard.reset()
	c.toHost.reset()
	c.refused, c.accepted = false, false
	c.boardClosed, c.hostClosed = false, false
	s.free = append(s.free, c)
}

// Accept pops a pending connection, or returns ErrWouldBlock. Kernels that
// need to block a process register a waiter with WaitConn first.
func (s *Stack) Accept(l *Listener) (*Conn, error) {
	if l.closed {
		return nil, ErrConnClosed
	}
	if len(l.backlog) == 0 {
		return nil, ErrWouldBlock
	}
	c := l.backlog[0]
	// Shift down rather than re-slice: the [1:] form burns capacity, so
	// every later Dial would grow the backlog again.
	n := copy(l.backlog, l.backlog[1:])
	l.backlog[n] = nil
	l.backlog = l.backlog[:n]
	c.accepted = true
	return c, nil
}

// WaitConn registers fn to fire with token when the listener next has a
// pending connection. Registering a new waiter replaces any previous one
// (last wins), so a kernel can abandon a dead process's waiter by simply
// registering the next. The token travels with the registration, not in a
// closure, so a kernel can build one waker per process and re-arm it for
// every wait without allocating; the waker ignores tokens of finished waits.
func (s *Stack) WaitConn(l *Listener, fn func(token uint64), token uint64) {
	if len(l.backlog) > 0 {
		l.onConn = nil
		fn(token)
		return
	}
	l.onConn, l.connToken = fn, token
}

// BoardRead reads up to max bytes from the board side of c. The returned
// bytes are valid until the next BoardRead on c.
func (s *Stack) BoardRead(c *Conn, max int) ([]byte, error) {
	return c.toBoard.read(max)
}

// BoardWrite writes bytes from the board side of c toward the host. The
// bytes are copied; the caller may reuse p.
func (s *Stack) BoardWrite(c *Conn, p []byte) error {
	return c.toHost.write(p)
}

// BoardClose closes the board side; the host observes EOF. The board must
// not use c afterwards: once the host has closed too, c is recycled.
func (s *Stack) BoardClose(c *Conn) {
	if c.boardClosed {
		return
	}
	c.boardClosed = true
	c.toHost.closed = true
	c.toHost.wake()
	c.toBoard.closed = true
	c.toBoard.wake()
	if c.hostClosed {
		s.recycle(c)
	}
}

// WaitReadable registers fn to fire with token when the board side of c
// next has data or EOF. Registering a new waiter replaces any previous one
// (last wins); tokens work as in WaitConn.
func (s *Stack) WaitReadable(c *Conn, fn func(token uint64), token uint64) {
	if len(c.toBoard.buf) > 0 || c.toBoard.closed {
		c.toBoard.onReadable = nil
		fn(token)
		return
	}
	c.toBoard.onReadable, c.toBoard.readToken = fn, token
}

// HostConn is the harness's handle on one connection: a value, like a timer
// id, naming a Conn and the generation it was dialed under. Once the Conn
// is recycled the handle is stale and behaves as a closed connection —
// writes fail, reads return nothing, Close does nothing — so it can never
// touch the connection that reused its Conn. The zero HostConn is stale.
type HostConn struct {
	c   *Conn
	gen uint64
}

// conn returns the live connection behind h, or nil when h is stale.
func (h HostConn) conn() *Conn {
	if h.c == nil || h.c.gen != h.gen {
		return nil
	}
	return h.c
}

// Write sends bytes toward the board, waking any blocked reader. The bytes
// are copied; the caller may reuse p.
func (h HostConn) Write(p []byte) error {
	c := h.conn()
	if c == nil {
		return ErrConnClosed
	}
	if c.refused {
		return ErrNoListener
	}
	return c.toBoard.write(p)
}

// ReadAll drains everything the board has written so far. It never blocks;
// it returns nil when nothing is pending. The returned bytes are valid until
// the next ReadAll on h.
func (h HostConn) ReadAll() []byte {
	c := h.conn()
	if c == nil {
		return nil
	}
	out, err := c.toHost.read(0)
	if err != nil {
		return nil
	}
	return out
}

// Closed reports whether the board side has closed the connection.
func (h HostConn) Closed() bool {
	c := h.conn()
	return c == nil || c.toHost.closed && len(c.toHost.buf) == 0
}

// Close closes the host side; the board observes EOF on read. Once the
// board has closed too, the Conn is recycled and h goes stale.
func (h HostConn) Close() {
	c := h.conn()
	if c == nil || c.hostClosed {
		return
	}
	c.hostClosed = true
	c.toBoard.closed = true
	c.toBoard.wake()
	if c.boardClosed {
		c.stack.recycle(c)
	}
}
