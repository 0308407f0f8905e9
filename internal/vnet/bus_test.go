package vnet

import (
	"bytes"
	"errors"
	"testing"
)

// busPair builds a two-node bus: node 0 is a plain stack (the sender side),
// node 1 a stack listening on port 47808.
func busPair(t *testing.T) (*Bus, *Stack, *Stack, *Listener) {
	t.Helper()
	a, b := NewStack(), NewStack()
	l, err := b.Listen(47808)
	if err != nil {
		t.Fatal(err)
	}
	bus := NewBus()
	bus.AddNode("a", a)
	bus.AddNode("b", b)
	return bus, a, b, l
}

func TestBusDeliverAndRespond(t *testing.T) {
	bus, _, b, l := busPair(t)
	c := bus.Dial(0, 1, 47808)
	if err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	// Nothing moves before the barrier.
	if _, err := b.Accept(l); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("pre-flush accept err = %v, want ErrWouldBlock", err)
	}
	bus.Flush()

	conn, err := b.Accept(l)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.BoardRead(conn, 0)
	if err != nil || string(got) != "ping" {
		t.Fatalf("board read = %q, %v", got, err)
	}
	if err := b.BoardWrite(conn, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	// The response lands in the sender's inbox at the next barrier.
	if got := c.ReadAll(); got != nil {
		t.Fatalf("response before flush: %q", got)
	}
	bus.Flush()
	if got := c.ReadAll(); string(got) != "pong" {
		t.Fatalf("response = %q", got)
	}
}

func TestBusFixedDeliveryOrder(t *testing.T) {
	target := NewStack()
	if _, err := target.Listen(9); err != nil {
		t.Fatal(err)
	}
	bus := NewBus()
	n0 := bus.AddNode("n0", NewStack())
	n1 := bus.AddNode("n1", NewStack())
	tID := bus.AddNode("t", target)

	var order []string
	bus.AddTap(func(f TapFrame) {
		order = append(order, bus.NodeName(f.From)+":"+string(f.Payload))
	})

	// Queue in deliberately scrambled wall order: node 1 first, then node 0
	// with two connections, writing interleaved chunks.
	c1 := bus.Dial(n1, tID, 9)
	c0a := bus.Dial(n0, tID, 9)
	c0b := bus.Dial(n0, tID, 9)
	_ = c1.Write([]byte("B1"))
	_ = c0b.Write([]byte("A2-first"))
	_ = c0a.Write([]byte("A1-first"))
	_ = c0a.Write([]byte("A1-second"))
	_ = c1.Write([]byte("B2"))
	bus.Flush()

	// Delivery is nodes ascending, conns in creation order, chunks in write
	// order — independent of the order the writes were issued in.
	want := []string{"n0:A1-first", "n0:A1-second", "n0:A2-first", "n1:B1", "n1:B2"}
	if len(order) != len(want) {
		t.Fatalf("tap saw %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery[%d] = %q, want %q (full: %v)", i, order[i], want[i], order)
		}
	}
}

func TestBusDialRefused(t *testing.T) {
	bus, _, _, _ := busPair(t)
	// No listener on port 99.
	c := bus.Dial(0, 1, 99)
	if err := c.Write([]byte("x")); err != nil {
		t.Fatalf("pre-flush write: %v", err)
	}
	bus.Flush()
	if !c.Refused() {
		t.Fatal("dial to dead port not refused")
	}
	if err := c.Write([]byte("y")); !errors.Is(err, ErrNoListener) {
		t.Fatalf("write after refusal err = %v, want ErrNoListener", err)
	}
}

func TestBusDialOriginateOnlyNodeRefused(t *testing.T) {
	bus := NewBus()
	bus.AddNode("a", NewStack())
	head := bus.AddNode("head", nil) // supervisory head-end: no stack
	c := bus.Dial(0, head, 47808)
	bus.Flush()
	if !c.Refused() {
		t.Fatal("dial toward a stackless node not refused")
	}
}

func TestBusBacklogFullRefused(t *testing.T) {
	bus, _, b, _ := busPair(t)
	// Saturate the listener's backlog from the host side.
	for i := 0; i < backlogMax; i++ {
		if _, err := b.Dial(47808); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
	}
	c := bus.Dial(0, 1, 47808)
	bus.Flush()
	if !c.Refused() {
		t.Fatal("dial into a full backlog not refused")
	}
}

func TestBusBoardCloseDataBeforeEOF(t *testing.T) {
	bus, _, b, l := busPair(t)
	c := bus.Dial(0, 1, 47808)
	_ = c.Write([]byte("hi"))
	bus.Flush()
	conn, err := b.Accept(l)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.BoardRead(conn, 0); err != nil {
		t.Fatal(err)
	}
	// The board answers and hangs up in the same round.
	_ = b.BoardWrite(conn, []byte("bye"))
	b.BoardClose(conn)
	bus.Flush()
	if got := c.ReadAll(); string(got) != "bye" {
		t.Fatalf("final data = %q, want %q", got, "bye")
	}
	if !c.Closed() {
		t.Fatal("sender did not observe EOF")
	}
	if err := c.Write([]byte("x")); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("write after EOF err = %v, want ErrConnClosed", err)
	}
}

func TestBusSenderCloseReachesBoard(t *testing.T) {
	bus, _, b, l := busPair(t)
	c := bus.Dial(0, 1, 47808)
	_ = c.Write([]byte("last"))
	c.Close()
	bus.Flush()
	conn, err := b.Accept(l)
	if err != nil {
		t.Fatal(err)
	}
	// Queued data drains first, then the board reads EOF.
	got, err := b.BoardRead(conn, 0)
	if err != nil || string(got) != "last" {
		t.Fatalf("board read = %q, %v", got, err)
	}
	if _, err := b.BoardRead(conn, 0); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("post-close read err = %v, want ErrConnClosed", err)
	}
}

func TestBusTapPayloadIsACopy(t *testing.T) {
	bus, _, _, _ := busPair(t)
	var captured []byte
	bus.AddTap(func(f TapFrame) {
		if f.Port != 47808 {
			t.Fatalf("tap port = %d", f.Port)
		}
		captured = f.Payload
	})
	c := bus.Dial(0, 1, 47808)
	buf := []byte("frame-bytes")
	_ = c.Write(buf)
	buf[0] = 'X' // caller reuses its buffer; the bus copied on Write
	bus.Flush()
	if !bytes.Equal(captured, []byte("frame-bytes")) {
		t.Fatalf("tap payload = %q", captured)
	}
	// Replaying the captured chunk verbatim is valid sender input — the
	// attack path the building scenarios use.
	replay := bus.Dial(0, 1, 47808)
	if err := replay.Write(captured); err != nil {
		t.Fatal(err)
	}
}
