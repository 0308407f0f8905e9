package vnet

import (
	"errors"
	"testing"
)

// faultSwitch is a settable fault hook: tests mutate the verdict between
// barriers and count how often the hook is consulted.
type faultSwitch struct {
	verdict BusFault
	calls   int
}

func (f *faultSwitch) hook(from, to NodeID, port Port, age int) BusFault {
	f.calls++
	return f.verdict
}

func TestBusFaultHoldThenReleaseDeliversInOrder(t *testing.T) {
	bus, _, b, l := busPair(t)
	var order []string
	bus.SetTap(func(f TapFrame) { order = append(order, string(f.Payload)) })
	fs := &faultSwitch{}
	bus.SetFaultHook(fs.hook)

	c := bus.Dial(0, 1, 47808)
	bus.Flush() // dial released (zero verdict)
	conn, err := b.Accept(l)
	if err != nil {
		t.Fatal(err)
	}

	_ = c.Write([]byte("one"))
	_ = c.Write([]byte("two"))
	fs.verdict = BusFault{Hold: true}
	bus.Flush()
	bus.Flush()
	if len(order) != 0 {
		t.Fatalf("frames leaked through a Hold window: %v", order)
	}
	if _, err := b.BoardRead(conn, 0); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("board read during hold err = %v, want ErrWouldBlock", err)
	}

	fs.verdict = BusFault{}
	bus.Flush()
	if len(order) != 2 || order[0] != "one" || order[1] != "two" {
		t.Fatalf("released delivery order = %v, want [one two]", order)
	}
	got, err := b.BoardRead(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	rest, _ := b.BoardRead(conn, 0)
	if string(got)+string(rest) != "onetwo" {
		t.Fatalf("board saw %q + %q, want onetwo", got, rest)
	}
}

func TestBusFaultHoldAgesIncrement(t *testing.T) {
	bus, _, _, _ := busPair(t)
	var ages []int
	bus.SetFaultHook(func(from, to NodeID, port Port, age int) BusFault {
		ages = append(ages, age)
		return BusFault{Hold: true}
	})
	c := bus.Dial(0, 1, 47808)
	_ = c.Write([]byte("x"))
	bus.Flush() // dial age 0
	bus.Flush() // dial age 1
	bus.Flush() // dial age 2
	want := []int{0, 1, 2}
	if len(ages) != len(want) {
		t.Fatalf("hook consultations = %v, want %v", ages, want)
	}
	for i := range want {
		if ages[i] != want[i] {
			t.Fatalf("age[%d] = %d, want %d (full: %v)", i, ages[i], want[i], ages)
		}
	}
}

func TestBusFaultCloseDuringHoldDiscardsHeldFrames(t *testing.T) {
	bus, _, b, l := busPair(t)
	var order []string
	bus.SetTap(func(f TapFrame) { order = append(order, string(f.Payload)) })
	fs := &faultSwitch{}
	bus.SetFaultHook(fs.hook)

	c := bus.Dial(0, 1, 47808)
	bus.Flush()
	conn, err := b.Accept(l)
	if err != nil {
		t.Fatal(err)
	}

	// Two frames go into flight on the link, then a partition holds them and
	// the sender gives up. The frames were lost on the faulted link: they must
	// never arrive late after the partition heals.
	_ = c.Write([]byte("lost1"))
	_ = c.Write([]byte("lost2"))
	fs.verdict = BusFault{Hold: true}
	bus.Flush()
	c.Close()
	bus.Flush()
	// A closed BusConn must not be used again; that the barrier finished it
	// shows as its return to the node's free list.
	if len(bus.nodes[0].connFree) != 1 {
		t.Fatal("sender conn not done after Close during hold")
	}

	fs.verdict = BusFault{} // partition heals
	bus.Flush()
	bus.Flush()
	if len(order) != 0 {
		t.Fatalf("held frames delivered after Close: %v", order)
	}
	if _, err := b.BoardRead(conn, 0); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("board read after teardown err = %v, want ErrConnClosed", err)
	}
}

func TestBusFaultCloseDuringDialHold(t *testing.T) {
	bus, _, b, l := busPair(t)
	fs := &faultSwitch{verdict: BusFault{Hold: true}}
	bus.SetFaultHook(fs.hook)

	c := bus.Dial(0, 1, 47808)
	_ = c.Write([]byte("never"))
	bus.Flush() // dial held
	c.Close()
	bus.Flush() // dialer hangs up while the dial is still in flight
	if len(bus.nodes[0].connFree) != 1 {
		t.Fatal("conn not done after Close during dial hold")
	}

	// The far side never saw the dial, so healing the partition must not
	// conjure a connection out of the abandoned attempt.
	fs.verdict = BusFault{}
	bus.Flush()
	if _, err := b.Accept(l); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("listener accept err = %v, want ErrWouldBlock (no dial ever carried)", err)
	}
}

func TestBusFaultDialDropRefusesLikeNoListener(t *testing.T) {
	bus, _, _, _ := busPair(t)
	bus.SetFaultHook(func(from, to NodeID, port Port, age int) BusFault {
		return BusFault{Drop: true}
	})
	c := bus.Dial(0, 1, 47808)
	_ = c.Write([]byte("x"))
	bus.Flush()
	if !c.Refused() {
		t.Fatal("dropped dial not refused")
	}
	if err := c.Write([]byte("y")); !errors.Is(err, ErrNoListener) {
		t.Fatalf("write after drop-refusal err = %v, want ErrNoListener", err)
	}
}

func TestBusFaultDialGuardRunsAtRelease(t *testing.T) {
	// The admission guard must be consulted exactly once, at the Flush where
	// the fault hook releases the dial — never while the partition holds it.
	bus, _, b, l := busPair(t)
	fs := &faultSwitch{verdict: BusFault{Hold: true}}
	bus.SetFaultHook(fs.hook)
	guardCalls := 0
	bus.SetDialGuard(func(from, to NodeID, port Port) bool {
		guardCalls++
		return true
	})

	c := bus.Dial(0, 1, 47808)
	_ = c.Write([]byte("hello"))
	bus.Flush()
	bus.Flush()
	if guardCalls != 0 {
		t.Fatalf("guard consulted %d times while the dial was held, want 0", guardCalls)
	}

	fs.verdict = BusFault{}
	bus.Flush()
	if guardCalls != 1 {
		t.Fatalf("guard consulted %d times at release, want exactly 1", guardCalls)
	}
	conn, err := b.Accept(l)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := b.BoardRead(conn, 0); err != nil || string(got) != "hello" {
		t.Fatalf("board read = %q, %v", got, err)
	}
}

func TestBusFaultDialGuardRefusalAfterRelease(t *testing.T) {
	bus, _, b, l := busPair(t)
	fs := &faultSwitch{verdict: BusFault{Hold: true}}
	bus.SetFaultHook(fs.hook)
	bus.SetDialGuard(func(from, to NodeID, port Port) bool { return false })

	c := bus.Dial(0, 1, 47808)
	bus.Flush() // held: the guard's refusal is deferred with the dial
	if c.Refused() {
		t.Fatal("conn refused while the dial was still held")
	}
	fs.verdict = BusFault{}
	bus.Flush()
	if !c.Refused() {
		t.Fatal("guard refusal not applied at the releasing flush")
	}
	if _, err := b.Accept(l); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("listener accept err = %v, want ErrWouldBlock", err)
	}
}

func TestBusFaultDupDeliversTwiceBackToBack(t *testing.T) {
	bus, _, b, l := busPair(t)
	var order []string
	bus.SetTap(func(f TapFrame) { order = append(order, string(f.Payload)) })
	fs := &faultSwitch{}
	bus.SetFaultHook(fs.hook)

	c := bus.Dial(0, 1, 47808)
	bus.Flush()
	conn, err := b.Accept(l)
	if err != nil {
		t.Fatal(err)
	}

	_ = c.Write([]byte("A"))
	_ = c.Write([]byte("B"))
	fs.verdict = BusFault{Dup: true}
	bus.Flush()

	// A chattering repeater duplicates each frame in place: A A B B, never
	// interleaved as A B A B.
	want := []string{"A", "A", "B", "B"}
	if len(order) != len(want) {
		t.Fatalf("tap saw %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery[%d] = %q, want %q (full: %v)", i, order[i], want[i], order)
		}
	}
	var got []byte
	for {
		chunk, err := b.BoardRead(conn, 0)
		if err != nil {
			break
		}
		got = append(got, chunk...)
	}
	if string(got) != "AABB" {
		t.Fatalf("board byte stream = %q, want AABB", got)
	}
}

func TestBusFaultFIFOPinsFramesBehindFirstHold(t *testing.T) {
	// Once one frame Holds, everything behind it on the connection must wait
	// without being adjudicated — a partitioned link cannot reorder frames.
	bus, _, _, _ := busPair(t)
	var order []string
	bus.SetTap(func(f TapFrame) { order = append(order, string(f.Payload)) })

	frameCalls := 0
	holdFirst := true
	var c *BusConn
	bus.SetFaultHook(func(from, to NodeID, port Port, age int) BusFault {
		if c == nil || c.host.c == nil {
			return BusFault{} // dial consult: release immediately
		}
		frameCalls++
		if holdFirst {
			return BusFault{Hold: true}
		}
		return BusFault{}
	})

	c = bus.Dial(0, 1, 47808)
	bus.Flush() // establishes the dial
	_ = c.Write([]byte("first"))
	_ = c.Write([]byte("second"))
	bus.Flush()
	if frameCalls != 1 {
		t.Fatalf("hook adjudicated %d frames behind a Hold, want only the first", frameCalls)
	}
	if len(order) != 0 {
		t.Fatalf("frames delivered past a Hold: %v", order)
	}

	holdFirst = false
	bus.Flush()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("post-release order = %v, want [first second]", order)
	}
}
