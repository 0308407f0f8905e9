package vnet

import (
	"bytes"
	"testing"
)

// The bus recycles write chunks through the owning node's free list: Write
// copies into a pooled chunk, the Flush barrier returns it via
// recycleOutbox. These tests pin both halves of that contract — identity
// (the same backing array really is reused) and the zero-alloc steady
// state the 64-room bench depends on.

func TestBusChunkPoolReusesBackingArray(t *testing.T) {
	bus, _, b, l := busPair(t)
	c := bus.Dial(0, 1, 47808)
	payload := bytes.Repeat([]byte("x"), 96)

	if err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	first := &c.outbox[0].chunk[0]
	bus.Flush()
	if len(c.outbox) != 0 {
		t.Fatalf("outbox not recycled at the barrier: %d chunks", len(c.outbox))
	}
	if free := bus.nodes[0].chunkFree; len(free) != 1 || cap(free[0]) < len(payload) {
		t.Fatalf("free list after flush: %d chunks, cap %d", len(free), cap(free[0]))
	}

	if err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	if &c.outbox[0].chunk[0] != first {
		t.Error("second write did not reuse the recycled chunk's backing array")
	}
	bus.Flush()

	// Delivery still works end to end with the recycled chunk.
	conn, err := b.Accept(l)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.BoardRead(conn, 0)
	if err != nil || !bytes.Equal(got, append(payload, payload...)) {
		t.Fatalf("delivered %d bytes, err %v; want the two written chunks", len(got), err)
	}
}

func TestBusWriteRecycleCycleZeroAlloc(t *testing.T) {
	bus := NewBus()
	n0 := bus.AddNode("a", NewStack())
	bus.AddNode("b", NewStack())
	c := bus.Dial(n0, 1, 9)
	node := bus.nodes[n0]
	payload := bytes.Repeat([]byte("p"), 128)

	// Warm up: grow the chunk, the outbox slice, and the free list once.
	for i := 0; i < 2; i++ {
		if err := c.Write(payload); err != nil {
			t.Fatal(err)
		}
		c.recycleOutbox(node)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.Write(payload); err != nil {
			t.Fatal(err)
		}
		c.recycleOutbox(node)
	})
	if allocs != 0 {
		t.Errorf("write/recycle cycle allocated %.1f per run, want 0", allocs)
	}
}
