package vnet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// Connections and bus connections are recycled, and stream reads hand out
// alternating buffers. These tests hold the recycling stack to the
// behaviour of the stack before either existed: refStack and refBus below
// are that stack, reduced to what the oracle drives. It allocated every
// Conn, HostConn and BusConn fresh, never reused one, and handed each read
// its own bytes.

type refHalfStream struct {
	buf    []byte
	closed bool
}

func (h *refHalfStream) write(p []byte) error {
	if h.closed {
		return ErrConnClosed
	}
	h.buf = append(h.buf, p...)
	return nil
}

func (h *refHalfStream) read(max int) ([]byte, error) {
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
		out := h.buf
		h.buf = nil
		return out, nil
	}
	out := make([]byte, n)
	copy(out, h.buf[:n])
	h.buf = h.buf[n:]
	return out, nil
}

type refConn struct {
	id      uint64
	toBoard refHalfStream
	toHost  refHalfStream
	refused bool
}

type refListener struct {
	backlog []*refConn
	closed  bool
}

type refStack struct {
	listeners map[Port]*refListener
	nextConn  uint64
}

func newRefStack() *refStack {
	return &refStack{listeners: make(map[Port]*refListener), nextConn: 1}
}

func (s *refStack) Listen(port Port) *refListener {
	l := &refListener{}
	s.listeners[port] = l
	return l
}

func (s *refStack) Dial(port Port) (*refHostConn, error) {
	l, ok := s.listeners[port]
	if !ok || l.closed {
		return nil, fmt.Errorf("%w: port %d", ErrNoListener, port)
	}
	if len(l.backlog) >= backlogMax {
		return nil, fmt.Errorf("%w: port %d", ErrBacklogFull, port)
	}
	c := &refConn{id: s.nextConn}
	s.nextConn++
	l.backlog = append(l.backlog, c)
	return &refHostConn{conn: c}, nil
}

func (s *refStack) Accept(l *refListener) (*refConn, error) {
	if l.closed {
		return nil, ErrConnClosed
	}
	if len(l.backlog) == 0 {
		return nil, ErrWouldBlock
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	return c, nil
}

func (s *refStack) BoardClose(c *refConn) {
	c.toHost.closed = true
	c.toBoard.closed = true
}

type refHostConn struct{ conn *refConn }

func (h *refHostConn) Write(p []byte) error {
	if h.conn.refused {
		return ErrNoListener
	}
	return h.conn.toBoard.write(p)
}

func (h *refHostConn) ReadAll() []byte {
	out, err := h.conn.toHost.read(0)
	if err != nil {
		return nil
	}
	return out
}

func (h *refHostConn) Closed() bool {
	return h.conn.toHost.closed && len(h.conn.toHost.buf) == 0
}

func (h *refHostConn) Close() { h.conn.toBoard.closed = true }

type refBus struct {
	stacks []*refStack
	conns  [][]*refBusConn
	tap    func(TapFrame)
	fault  func(from, to NodeID, port Port, age int) BusFault
}

type refBusConn struct {
	from, to NodeID
	port     Port
	host     *refHostConn
	outbox   [][]byte
	inbox    []byte
	refused  bool
	eof      bool
	closeReq bool
	done     bool
	held     [][]byte
	heldAge  []int
	dialAge  int
}

func (b *refBus) Dial(from, to NodeID, port Port) *refBusConn {
	c := &refBusConn{from: from, to: to, port: port}
	b.conns[from] = append(b.conns[from], c)
	return c
}

func (b *refBus) Flush() {
	for n, conns := range b.conns {
		live := conns[:0]
		for _, c := range conns {
			if b.fault == nil {
				b.flushConn(c)
			} else {
				b.flushConnFaulty(c)
			}
			if c.refused || c.done {
				continue
			}
			live = append(live, c)
		}
		b.conns[n] = live
	}
}

// dial performs c's deferred stack dial, reporting false on refusal.
func (b *refBus) dial(c *refBusConn) bool {
	target := b.stacks[c.to]
	if target == nil {
		c.refused = true
		return false
	}
	host, err := target.Dial(c.port)
	if err != nil {
		c.refused = true
		return false
	}
	c.host = host
	return true
}

func (b *refBus) flushConn(c *refBusConn) {
	if c.refused || c.done {
		c.outbox = nil
		return
	}
	if c.host == nil && !b.dial(c) {
		c.outbox = nil
		return
	}
	for _, chunk := range c.outbox {
		if err := c.host.Write(chunk); err != nil {
			c.eof = true
			break
		}
		b.deliverTap(c, chunk)
	}
	c.outbox = nil
	c.drain()
	if c.closeReq {
		c.host.Close()
		c.done = true
	}
}

func (b *refBus) deliverTap(c *refBusConn, chunk []byte) {
	if b.tap != nil {
		b.tap(TapFrame{From: c.from, To: c.to, Port: c.port, Payload: append([]byte(nil), chunk...)})
	}
}

func (c *refBusConn) drain() {
	if data := c.host.ReadAll(); len(data) > 0 {
		if len(c.inbox) == 0 {
			c.inbox = data
		} else {
			c.inbox = append(c.inbox, data...)
		}
	}
	if c.host.Closed() {
		c.eof = true
	}
}

func (b *refBus) flushConnFaulty(c *refBusConn) {
	if c.refused || c.done {
		c.held, c.heldAge, c.outbox = nil, nil, nil
		return
	}
	if c.host == nil {
		v := b.fault(c.from, c.to, c.port, c.dialAge)
		switch {
		case v.Hold:
			c.dialAge++
			if c.closeReq {
				c.held, c.heldAge, c.outbox = nil, nil, nil
				c.done = true
			}
			return
		case v.Drop:
			c.refused = true
			c.held, c.heldAge, c.outbox = nil, nil, nil
			return
		}
		if !b.dial(c) {
			c.held, c.heldAge, c.outbox = nil, nil, nil
			return
		}
	}
	for _, chunk := range c.outbox {
		c.held = append(c.held, chunk)
		c.heldAge = append(c.heldAge, 0)
	}
	c.outbox = nil
	var held [][]byte
	var ages []int
	blocked := false
	for i, chunk := range c.held {
		if c.eof {
			continue
		}
		if !blocked {
			v := b.fault(c.from, c.to, c.port, c.heldAge[i])
			switch {
			case v.Hold:
				blocked = true
			case v.Drop:
				continue
			default:
				if err := c.host.Write(chunk); err != nil {
					c.eof = true
					continue
				}
				b.deliverTap(c, chunk)
				if v.Dup {
					if err := c.host.Write(chunk); err != nil {
						c.eof = true
					} else {
						b.deliverTap(c, chunk)
					}
				}
				continue
			}
		}
		held = append(held, chunk)
		ages = append(ages, c.heldAge[i]+1)
	}
	c.held, c.heldAge = held, ages
	c.drain()
	if c.closeReq {
		c.held, c.heldAge = nil, nil
		c.host.Close()
		c.done = true
	}
}

func (c *refBusConn) Write(p []byte) error {
	if c.refused {
		return ErrNoListener
	}
	if c.eof || c.closeReq || c.done {
		return ErrConnClosed
	}
	c.outbox = append(c.outbox, append([]byte(nil), p...))
	return nil
}

func (c *refBusConn) ReadAll() []byte {
	out := c.inbox
	c.inbox = nil
	if len(out) == 0 {
		return nil
	}
	return out
}

// sameErr reports whether two errors are both nil or both wrap the same
// vnet sentinel.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	for _, e := range []error{ErrConnClosed, ErrNoListener, ErrWouldBlock, ErrBacklogFull} {
		if errors.Is(a, e) != errors.Is(b, e) {
			return false
		}
	}
	return true
}

// heldRead is bytes a read handed out, with a copy of what they said then:
// they must still say it until the next read on the same stream (or, for a
// BusConn, the next Flush).
type heldRead struct {
	got, want []byte
}

func (h heldRead) check(t *testing.T, what string) {
	t.Helper()
	if !bytes.Equal(h.got, h.want) {
		t.Fatalf("%s: bytes of an earlier read changed to %q before it expired, want %q", what, h.got, h.want)
	}
}

// TestRecyclingMatchesNeverRecyclingStack drives random interleavings of
// every connection operation against the recycling stack and the reference
// one: a head-end-like originate-only node dials a board over the bus, and
// a harness dials the board's stack directly. Every read must return the
// same bytes, EOF and refusal, every accept the same connection id, and
// every tap the same frames in the same order. Half the runs put a random
// fault hook on both buses.
func TestRecyclingMatchesNeverRecyclingStack(t *testing.T) {
	const open, refusedPort Port = 47808, 9
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stack := NewStack()
		l, err := stack.Listen(open)
		if err != nil {
			t.Fatal(err)
		}
		bus := NewBus()
		head := bus.AddNode("head", nil)
		board := bus.AddNode("board", stack)

		ref := newRefStack()
		refL := ref.Listen(open)
		rbus := &refBus{stacks: []*refStack{nil, ref}, conns: make([][]*refBusConn, 2)}

		var taps, refTaps []TapFrame
		bus.SetTap(func(f TapFrame) { taps = append(taps, f) })
		rbus.tap = func(f TapFrame) { refTaps = append(refTaps, f) }
		if seed%2 == 0 {
			// Each bus consults its own copy of one verdict stream, so the
			// verdicts agree as long as the buses ask in the same order.
			mk := func() func(NodeID, NodeID, Port, int) BusFault {
				vr := rand.New(rand.NewSource(seed))
				return func(NodeID, NodeID, Port, int) BusFault {
					switch vr.Intn(10) {
					case 0:
						return BusFault{Hold: true}
					case 1:
						return BusFault{Drop: true}
					case 2:
						return BusFault{Dup: true}
					}
					return BusFault{}
				}
			}
			bus.SetFaultHook(mk())
			rbus.fault = mk()
		}

		type busPair struct {
			c    *BusConn
			r    *refBusConn
			held *heldRead
		}
		type hostPair struct {
			h    HostConn
			r    *refHostConn
			held *heldRead
		}
		type boardPair struct {
			c    *Conn
			r    *refConn
			held *heldRead
		}
		var bcs []*busPair
		var hcs []*hostPair
		var bds []*boardPair
		payload := func() []byte {
			p := make([]byte, rng.Intn(12))
			rng.Read(p)
			return p
		}
		fail := func(op int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d op %d: %s", seed, op, fmt.Sprintf(format, args...))
		}

		for op := 0; op < 600; op++ {
			switch k := rng.Intn(14); {
			case k == 0 && len(bcs) < 24:
				port := open
				if rng.Intn(6) == 0 {
					port = refusedPort
				}
				bcs = append(bcs, &busPair{c: bus.Dial(head, board, port), r: rbus.Dial(head, board, port)})
			case k == 1 && len(bcs) > 0:
				p := bcs[rng.Intn(len(bcs))]
				data := payload()
				if e1, e2 := p.c.Write(data), p.r.Write(data); !sameErr(e1, e2) {
					fail(op, "BusConn.Write err %v, reference %v", e1, e2)
				}
			case k == 2 && len(bcs) > 0:
				p := bcs[rng.Intn(len(bcs))]
				got, want := p.c.ReadAll(), p.r.ReadAll()
				if !bytes.Equal(got, want) {
					fail(op, "BusConn.ReadAll = %q, reference %q", got, want)
				}
				if got != nil {
					p.held = &heldRead{got: got, want: bytes.Clone(got)}
				}
				if p.c.Refused() != p.r.refused || p.c.Closed() != (p.r.eof || p.r.done) {
					fail(op, "BusConn refused/closed = %v/%v, reference %v/%v", p.c.Refused(), p.c.Closed(), p.r.refused, p.r.eof || p.r.done)
				}
			case k == 3 && len(bcs) > 0:
				i := rng.Intn(len(bcs))
				bcs[i].c.Close()
				bcs[i].r.closeReq = true
				bcs = append(bcs[:i], bcs[i+1:]...)
			case k == 4:
				for _, p := range bcs {
					if p.held != nil {
						p.held.check(t, "BusConn.ReadAll")
						p.held = nil
					}
				}
				bus.Flush()
				rbus.Flush()
			case k == 5 && len(hcs) < 24:
				h, e1 := stack.Dial(open)
				r, e2 := ref.Dial(open)
				if !sameErr(e1, e2) {
					fail(op, "Stack.Dial err %v, reference %v", e1, e2)
				}
				if e1 == nil {
					hcs = append(hcs, &hostPair{h: h, r: r})
				}
			case k == 6 && len(hcs) > 0:
				p := hcs[rng.Intn(len(hcs))]
				data := payload()
				if e1, e2 := p.h.Write(data), p.r.Write(data); !sameErr(e1, e2) {
					fail(op, "HostConn.Write err %v, reference %v", e1, e2)
				}
			case k == 7 && len(hcs) > 0:
				p := hcs[rng.Intn(len(hcs))]
				if p.held != nil {
					p.held.check(t, "HostConn.ReadAll")
					p.held = nil
				}
				got, want := p.h.ReadAll(), p.r.ReadAll()
				if !bytes.Equal(got, want) {
					fail(op, "HostConn.ReadAll = %q, reference %q", got, want)
				}
				if got != nil {
					p.held = &heldRead{got: got, want: bytes.Clone(got)}
				}
				if p.h.Closed() != p.r.Closed() {
					fail(op, "HostConn.Closed = %v, reference %v", p.h.Closed(), p.r.Closed())
				}
			case k == 8 && len(hcs) > 0:
				i := rng.Intn(len(hcs))
				hcs[i].h.Close()
				hcs[i].r.Close()
				hcs = append(hcs[:i], hcs[i+1:]...)
			case k == 9 || k == 10:
				c, e1 := stack.Accept(l)
				r, e2 := ref.Accept(refL)
				if !sameErr(e1, e2) {
					fail(op, "Accept err %v, reference %v", e1, e2)
				}
				if e1 == nil {
					if c.ID() != r.id {
						fail(op, "accepted connection id %d, reference %d", c.ID(), r.id)
					}
					bds = append(bds, &boardPair{c: c, r: r})
				}
			case k == 11 && len(bds) > 0:
				p := bds[rng.Intn(len(bds))]
				if p.held != nil {
					p.held.check(t, "BoardRead")
					p.held = nil
				}
				max := rng.Intn(9)
				got, e1 := stack.BoardRead(p.c, max)
				want, e2 := p.r.toBoard.read(max)
				if !sameErr(e1, e2) || !bytes.Equal(got, want) {
					fail(op, "BoardRead(%d) = %q, %v; reference %q, %v", max, got, e1, want, e2)
				}
				if got != nil {
					p.held = &heldRead{got: got, want: bytes.Clone(got)}
				}
			case k == 12 && len(bds) > 0:
				p := bds[rng.Intn(len(bds))]
				data := payload()
				if e1, e2 := stack.BoardWrite(p.c, data), p.r.toHost.write(data); !sameErr(e1, e2) {
					fail(op, "BoardWrite err %v, reference %v", e1, e2)
				}
			case k == 13 && len(bds) > 0:
				i := rng.Intn(len(bds))
				stack.BoardClose(bds[i].c)
				ref.BoardClose(bds[i].r)
				bds = append(bds[:i], bds[i+1:]...)
			}
			if len(taps) != len(refTaps) {
				fail(op, "%d frames tapped, reference %d", len(taps), len(refTaps))
			}
			for i := range taps {
				a, b := taps[i], refTaps[i]
				if a.From != b.From || a.To != b.To || a.Port != b.Port || !bytes.Equal(a.Payload, b.Payload) {
					fail(op, "tapped frame %d = %+v, reference %+v", i, a, b)
				}
			}
		}
	}
}

// A HostConn outlives the Conn it names: once both ends have closed and a
// new Dial reuses the Conn, the old handle must act closed and must not
// touch the new connection.
func TestStaleHostConnAfterReuse(t *testing.T) {
	s := NewStack()
	l, _ := s.Listen(80)
	old, _ := s.Dial(80)
	oldBoard, _ := s.Accept(l)
	s.BoardClose(oldBoard)
	old.Close()

	fresh, err := s.Dial(80)
	if err != nil {
		t.Fatal(err)
	}
	board, _ := s.Accept(l)
	if board != oldBoard {
		t.Fatal("Dial did not reuse the closed connection; the test needs the reuse")
	}
	if board.ID() != 2 {
		t.Fatalf("reused connection id %d, want the next id 2", board.ID())
	}
	if err := s.BoardWrite(board, []byte("for-fresh")); err != nil {
		t.Fatal(err)
	}
	if err := old.Write([]byte("x")); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("stale Write err = %v, want ErrConnClosed", err)
	}
	if got := old.ReadAll(); got != nil {
		t.Fatalf("stale ReadAll = %q, want nothing", got)
	}
	if !old.Closed() {
		t.Fatal("stale handle does not report closed")
	}
	old.Close()
	if _, err := s.BoardRead(board, 0); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("stale Close reached the new connection: board read err = %v", err)
	}
	if got := fresh.ReadAll(); string(got) != "for-fresh" {
		t.Fatalf("fresh ReadAll = %q", got)
	}
	if err := fresh.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.BoardRead(board, 0); err != nil || string(got) != "ok" {
		t.Fatalf("board read = %q, %v", got, err)
	}
}

// A read's bytes stay intact while later writes arrive, and are reused
// only after the next read: the stream alternates two buffers.
func TestReadBytesValidUntilNextRead(t *testing.T) {
	s := NewStack()
	l, _ := s.Listen(80)
	host, _ := s.Dial(80)
	board, _ := s.Accept(l)
	_ = host.Write([]byte("aaaa"))
	first, _ := s.BoardRead(board, 0)
	_ = host.Write([]byte("bbbb"))
	if string(first) != "aaaa" {
		t.Fatalf("first read changed to %q by a later write", first)
	}
	second, _ := s.BoardRead(board, 0)
	if string(first) != "aaaa" || string(second) != "bbbb" {
		t.Fatalf("reads = %q, %q", first, second)
	}
	// The next read has happened, so the first read's buffer now takes the
	// pending bytes: this is the reuse the contract allows.
	_ = host.Write([]byte("cccc"))
	if string(first) != "cccc" {
		t.Fatalf("first read's buffer = %q after the next read, want it reused for %q", first, "cccc")
	}
	if string(second) != "bbbb" {
		t.Fatalf("second read changed to %q before the next read", second)
	}
}

// A recycled BusConn joins the flush list where a new one would: at the
// end, after every connection dialed before it, whatever its old position.
func TestRecycledBusConnFlushesAtNewPosition(t *testing.T) {
	bus, _, _, _ := busPair(t)
	var order []string
	bus.SetTap(func(f TapFrame) { order = append(order, string(f.Payload)) })
	first := bus.Dial(0, 1, 47808)
	second := bus.Dial(0, 1, 47808)
	bus.Flush()
	first.Close()
	bus.Flush() // first finishes and is recycled
	third := bus.Dial(0, 1, 47808)
	if third != first {
		t.Fatal("Dial did not reuse the closed BusConn; the test needs the reuse")
	}
	_ = third.Write([]byte("third"))
	_ = second.Write([]byte("second"))
	bus.Flush()
	if len(order) != 2 || order[0] != "second" || order[1] != "third" {
		t.Fatalf("delivery order = %q, want [second third]", order)
	}
}

// Once warm, one connection-per-exchange round trip over the bus — dial,
// request, accept, read, reply, close on both ends — allocates nothing:
// every Conn, BusConn, stream buffer and inbox comes back from a free list.
func TestBusExchangeZeroAlloc(t *testing.T) {
	bus, _, b, l := busPair(t)
	req, resp := []byte("request"), []byte("response")
	exchange := func() {
		c := bus.Dial(0, 1, 47808)
		_ = c.Write(req)
		bus.Flush()
		conn, err := b.Accept(l)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := b.BoardRead(conn, 0); !bytes.Equal(got, req) {
			t.Fatalf("board read %q", got)
		}
		_ = b.BoardWrite(conn, resp)
		b.BoardClose(conn)
		bus.Flush()
		if got := c.ReadAll(); !bytes.Equal(got, resp) {
			t.Fatalf("response %q", got)
		}
		c.Close()
		bus.Flush()
	}
	for i := 0; i < 3; i++ {
		exchange()
	}
	if allocs := testing.AllocsPerRun(100, exchange); allocs != 0 {
		t.Errorf("bus exchange allocated %.1f per run, want 0", allocs)
	}
	if n := len(b.free); n != 1 {
		t.Errorf("stack free list holds %d conns after serial exchanges, want 1", n)
	}
	if n := len(bus.nodes[0].connFree); n != 1 {
		t.Errorf("node free list holds %d BusConns after serial exchanges, want 1", n)
	}
}
