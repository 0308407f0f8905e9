package vnet

import (
	"errors"

	"mkbas/internal/machine"
)

// Sockets is one process's socket table: the listeners and connections it
// holds under integer handles, and the accept or read it is blocked in.
// Every kernel keeps one per networked process and runs its socket traps
// on it. The kernels differ only in who may reach the network (DESIGN §5):
// each runs its own access check on a trap, then hands the trap to the
// caller's table, so the mechanics behind the check are the same on all of
// them.
//
// A kernel creates the table on the process's first listen, so a process
// that never binds a port carries none; the trap methods also answer on a
// nil table, where every handle is unknown. All methods run on the engine
// goroutine, like the Stack's.
type Sockets struct {
	stack *Stack
	// next is the handle counter: own, or one the kernel shares with the
	// process's other descriptors.
	next *int32
	own  int32
	// open holds the open sockets in handle order. A process holds a few at
	// a time, so a scan beats a map, and the order is the release order.
	open []socket
	// waits is the owner's kernel's wait layer and owner its wait record:
	// a blocking accept or read parks the owner there. ready is the
	// table's network waker (wake), bound once so that registering it with
	// the stack under each blocking accept's or read's token allocates
	// nothing.
	waits *machine.Waits
	owner *machine.Wait
	ready func(token uint64)
	// The blocked operation: an accept on lis or, with lis nil, a read of
	// up to max bytes from conn.
	lis  *Listener
	conn *Conn
	max  int
}

// socket is one open handle: a listener or, with l nil, a connection.
type socket struct {
	h int32
	l *Listener
	c *Conn
}

// The socket traps, as offsets from a kernel's listen trap: every kernel's
// trap table lists listen, accept, read, write and close consecutively.
const (
	opAccept = 1 + iota // R0 listener → R0 connection
	opRead              // R0 connection, R1 max → Buf data
	opWrite             // R0 connection, Buf data
	opClose             // R0 connection
)

// NewSockets returns an empty table over stack for the process whose wait
// record is owner, in its kernel's wait layer waits. Handles are drawn from
// *next, or from the table's own counter when next is nil.
func NewSockets(stack *Stack, next *int32, waits *machine.Waits, owner *machine.Wait) *Sockets {
	s := &Sockets{stack: stack, next: next, waits: waits, owner: owner}
	s.ready = s.wake
	if next == nil {
		s.next = &s.own
	}
	return s
}

// add stores a socket under a fresh handle and returns the handle. Handles
// only grow, so appending keeps open in handle order.
func (s *Sockets) add(l *Listener, c *Conn) int32 {
	*s.next++
	s.open = append(s.open, socket{h: *s.next, l: l, c: c})
	return *s.next
}

// listener returns the listener under handle h, or nil.
func (s *Sockets) listener(h int32) *Listener {
	if s != nil {
		for _, o := range s.open {
			if o.h == h {
				return o.l
			}
		}
	}
	return nil
}

// connAt returns the index in open of the connection under handle h, or -1.
func (s *Sockets) connAt(h int32) int {
	if s != nil {
		for i, o := range s.open {
			if o.h == h && o.c != nil {
				return i
			}
		}
	}
	return -1
}

// Listen binds port for the listen trap in f and writes the listener's
// handle into R0, or the error into the error slot. The kernel calls it once
// its access check has passed and named the port.
func (s *Sockets) Listen(f *machine.Frame, port Port) {
	l, err := s.stack.Listen(port)
	if err != nil {
		f.Err = err
		return
	}
	f.R[0] = uint64(s.add(l, nil))
}

// Trap runs the accept, read, write or close trap in f, whose number counts
// from base, the kernel's listen trap. An unknown handle fails with bad, the
// kernel's own error. An accept or read that finds nothing pending parks
// the owner in machine.WaitNet until the network wakes it, and Trap
// returns Block.
func (s *Sockets) Trap(f *machine.Frame, base uint32, bad error) machine.Disposition {
	h := int32(f.R[0])
	switch f.Nr - base {
	case opAccept:
		l := s.listener(h)
		if l == nil {
			f.Err = bad
			break
		}
		if err := s.accept(f, l); !errors.Is(err, ErrWouldBlock) {
			f.Err = err
			break
		}
		s.lis = l
		s.stack.WaitConn(l, s.ready, s.waits.Block(s.owner, machine.WaitNet))
		return machine.DispositionBlock
	case opRead:
		i := s.connAt(h)
		if i < 0 {
			f.Err = bad
			break
		}
		c, max := s.open[i].c, int(f.R[1])
		if err := s.read(f, c, max); !errors.Is(err, ErrWouldBlock) {
			f.Err = err
			break
		}
		s.lis, s.conn, s.max = nil, c, max
		s.stack.WaitReadable(c, s.ready, s.waits.Block(s.owner, machine.WaitNet))
		return machine.DispositionBlock
	case opWrite:
		i := s.connAt(h)
		if i < 0 {
			f.Err = bad
			break
		}
		f.Err = s.stack.BoardWrite(s.open[i].c, f.Buf)
	case opClose:
		i := s.connAt(h)
		if i < 0 {
			f.Err = bad
			break
		}
		c := s.open[i].c
		n := copy(s.open[i:], s.open[i+1:])
		s.open[i+n] = socket{}
		s.open = s.open[:i+n]
		s.stack.BoardClose(c)
	}
	return machine.DispositionContinue
}

// accept pops a pending connection off l into a fresh handle in R0.
func (s *Sockets) accept(f *machine.Frame, l *Listener) error {
	c, err := s.stack.Accept(l)
	if err == nil {
		f.R[0] = uint64(s.add(nil, c))
	}
	return err
}

// read reads up to max bytes from c into Buf.
func (s *Sockets) read(f *machine.Frame, c *Conn, max int) error {
	var err error
	f.Buf, err = s.stack.BoardRead(c, max)
	return err
}

// wake is the table's network waker. If the owner still lives and token
// names its wait, it finishes the blocked accept or read into the owner's
// frame and wakes the owner with its error.
func (s *Sockets) wake(token uint64) {
	r := s.waits.Current(s.owner.PID, token, machine.WaitNet)
	if r == nil {
		return
	}
	f, l, c := s.waits.Frame(r), s.lis, s.conn
	s.lis, s.conn = nil, nil
	var err error
	if l != nil {
		err = s.accept(f, l)
	} else {
		err = s.read(f, c, s.max)
	}
	s.waits.Wake(r, err)
}

// Release closes every socket in handle order, unbinding the owner's ports
// and ending its connections. The kernel calls it when the owner dies, after
// dropping the owner from its lookup, so that a waker the closes fire does
// nothing.
func (s *Sockets) Release() {
	if s == nil {
		return
	}
	for i, o := range s.open {
		if o.l != nil {
			s.stack.CloseListener(o.l)
		} else {
			s.stack.BoardClose(o.c)
		}
		s.open[i] = socket{}
	}
	s.open = s.open[:0]
	s.lis, s.conn = nil, nil
}

// SocketAPI is the process side of the socket traps, embedded in every
// kernel's system-call interface: each wrapper writes its arguments into
// the caller's trap frame, traps, and reads the reply back. Listening stays
// with each kernel's interface, because what names the port differs: a port
// number, or a capability to it.
type SocketAPI struct {
	ctx  *machine.Context
	base uint32
}

// NewSocketAPI returns the socket wrappers of the process behind ctx, for a
// kernel whose listen trap is base.
func NewSocketAPI(ctx *machine.Context, base uint32) SocketAPI {
	return SocketAPI{ctx: ctx, base: base}
}

// NetAccept blocks until a connection arrives on the listener handle and
// returns the connection's handle.
func (a *SocketAPI) NetAccept(listener int32) (int32, error) {
	f := a.ctx.Frame()
	f.R[0] = uint64(listener)
	if err := a.ctx.Trap(a.base + opAccept); err != nil {
		return 0, err
	}
	return int32(f.R[0]), nil
}

// NetRead blocks until data or EOF is available on the connection handle
// and returns up to max bytes; max <= 0 means whatever is buffered. The
// bytes are valid until the next read on the connection.
func (a *SocketAPI) NetRead(conn int32, max int) ([]byte, error) {
	f := a.ctx.Frame()
	f.R[0], f.R[1] = uint64(conn), uint64(max)
	err := a.ctx.Trap(a.base + opRead)
	data := f.Buf
	f.Buf = nil
	return data, err
}

// NetWrite sends bytes on the connection handle.
func (a *SocketAPI) NetWrite(conn int32, data []byte) error {
	f := a.ctx.Frame()
	f.R[0], f.Buf = uint64(conn), data
	err := a.ctx.Trap(a.base + opWrite)
	f.Buf = nil
	return err
}

// NetClose closes the connection handle.
func (a *SocketAPI) NetClose(conn int32) error {
	a.ctx.Frame().R[0] = uint64(conn)
	return a.ctx.Trap(a.base + opClose)
}
