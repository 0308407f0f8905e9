package vnet

import (
	"fmt"

	"mkbas/internal/perf"
)

// The inter-board BAS bus. A Bus joins the per-board Stacks of a multi-room
// building into one shared field network, the way a BACnet/IP segment joins
// every controller in a real building: any node can dial any other node's
// ports, and — deliberately, like the legacy bus the paper criticises — any
// node can observe every frame in flight (AddTap).
//
// Determinism rule: boards run in parallel between delivery barriers, so the
// bus splits every exchange into two phases. During a round, each node's own
// goroutine queues writes and dials on its BusConns (touching only that
// node's state — nodes never share mutable state mid-round). At the barrier,
// the single coordinator goroutine calls Flush, which performs all queued
// dials and deliveries in fixed order: nodes by ascending id, each node's
// connections in creation order, each connection's chunks in write order.
// Delivery order is therefore a pure function of the simulation state, never
// of goroutine scheduling — the property the building's byte-identical
// 1-vs-N-worker contract rests on.
//
// Chunks preserve write boundaries end to end; senders length-prefix frames
// (bacnet.Frame) so receivers can re-segment the byte stream regardless of
// how reads coalesce.

// NodeID addresses one node on the bus.
type NodeID int

// busNode is one attachment point: a board's stack, or a stackless
// originate-only node (the supervisory head-end dials out but listens on
// nothing).
//
// chunkFree is the node's frame-buffer free list: BusConn.Write copies the
// caller's bytes into a recycled chunk, and Flush returns delivered chunks
// here. connFree holds BusConns their owner closed, for the node's next
// Dial. Both are per-node (not per-bus) because writes and dials happen on
// the owning node's goroutine mid-round, when nodes must not share mutable
// state; the coordinator recycles at the barrier, when every board is
// parked. Neither list holds more than the node had in flight at once.
type busNode struct {
	name      string
	stack     *Stack
	conns     []*BusConn
	chunkFree [][]byte
	connFree  []*BusConn
}

// getChunk pops a recycled chunk (length 0, capacity whatever it grew to),
// or returns nil so append allocates a fresh one.
func (n *busNode) getChunk() []byte {
	if k := len(n.chunkFree); k > 0 {
		c := n.chunkFree[k-1]
		n.chunkFree[k-1] = nil
		n.chunkFree = n.chunkFree[:k-1]
		return c[:0]
	}
	return nil
}

// putChunk returns a delivered chunk to the free list.
func (n *busNode) putChunk(c []byte) {
	n.chunkFree = append(n.chunkFree, c)
}

// putConn resets a closed, finished connection and returns it to the free
// list. Its buffers keep their capacity for the next exchange.
func (n *busNode) putConn(c *BusConn) {
	c.recycleOutbox(n)
	c.host = HostConn{}
	c.inbox, c.inboxRead = c.inbox[:0], false
	c.refused, c.eof, c.closeReq, c.done = false, false, false, false
	c.dialAge = 0
	n.connFree = append(n.connFree, c)
}

// Bus is the building's shared field network.
type Bus struct {
	nodes []*busNode
	taps  []func(TapFrame)
	guard func(from, to NodeID, port Port) bool
	fault func(from, to NodeID, port Port, age int) BusFault
	// phFlush books host time spent inside the two-phase delivery barrier;
	// nil (discarding) until Instrument.
	phFlush *perf.Phase
}

// BusFault is the fault hook's verdict on one queued frame or deferred dial.
// The zero value delivers normally. Hold wins over Drop, Drop over Dup.
type BusFault struct {
	// Drop discards the frame (or refuses the dial) — a lossy link.
	Drop bool
	// Hold keeps the frame (or dial) queued across this Flush; the hook is
	// consulted again next barrier with an incremented age. Partitions and
	// delays are expressed as Hold windows.
	Hold bool
	// Dup delivers the frame twice, back to back — a chattering repeater.
	// Meaningless for dials.
	Dup bool
}

// TapFrame is one delivered chunk, as seen by a bus tap.
type TapFrame struct {
	From, To NodeID
	Port     Port
	// Payload is a copy; taps may retain it.
	Payload []byte
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{}
}

// AddNode attaches a node. A nil stack attaches an originate-only node
// (it can dial other nodes but exposes no ports). Call during setup, before
// any board runs.
func (b *Bus) AddNode(name string, stack *Stack) NodeID {
	b.nodes = append(b.nodes, &busNode{name: name, stack: stack})
	return NodeID(len(b.nodes) - 1)
}

// NodeName returns the name given at AddNode.
func (b *Bus) NodeName(id NodeID) string { return b.nodes[id].name }

// Nodes reports the number of attached nodes.
func (b *Bus) Nodes() int { return len(b.nodes) }

// Instrument binds the bus to a host-side profiler: every Flush barrier books
// into the "bus.flush" phase. Flush runs on the single coordinator goroutine,
// serially with board stepping, so its share of wall-clock time is exactly the
// cost the two-phase determinism design pays. Nil-safe.
func (b *Bus) Instrument(p *perf.Profiler) { b.phFlush = p.HotPhase("bus.flush") }

// AddTap installs fn to observe every delivered chunk during Flush, after
// the taps added before it. It is the shared-medium exposure every node on
// a legacy bus has: an on-bus attacker captures frames for replay through
// it, and legitimate passive equipment (the standby head-end watching the
// primary's traffic) listens the same way. Taps cannot be removed; all taps
// share one payload copy per delivered chunk.
func (b *Bus) AddTap(fn func(TapFrame)) {
	if fn != nil {
		b.taps = append(b.taps, fn)
	}
}

// SetFaultHook installs fn as the bus fault model, consulted at every Flush
// for each deferred dial and each queued frame (age = how many barriers the
// item has already been held across, starting at 0). The hook runs on the
// coordinator goroutine at the barrier — never on board goroutines — so
// fault plans keyed to the building's virtual round are deterministic at any
// worker count. Frame order within a connection is FIFO-pinned: once one
// frame Holds, every later frame on that connection holds too, regardless of
// its own verdict. A Hold on the deferred dial postpones the whole
// connection (nothing sends before the dial); a Drop on the dial refuses the
// connection exactly like a missing listener. Only one hook is supported;
// nil removes it, and every verdict is then the zero BusFault.
func (b *Bus) SetFaultHook(fn func(from, to NodeID, port Port, age int) BusFault) { b.fault = fn }

// SetDialGuard installs fn as the bus admission policy: each queued dial is
// submitted to it once, at the Flush that would perform the deferred stack
// dial, and a false return refuses the connection exactly as a missing
// listener would. The guard runs on the coordinator goroutine between
// rounds — with every board engine parked — so it may inspect and mutate
// cross-board monitor state deterministically. Only one guard is supported;
// nil removes it (the legacy open bus).
func (b *Bus) SetDialGuard(fn func(from, to NodeID, port Port) bool) { b.guard = fn }

// Dial opens a connection from one node toward a port on another. The actual
// stack dial is deferred to the next Flush (the bus has store-and-forward
// latency of one round), so Dial itself never fails: refusal surfaces on the
// connection afterwards. Call only from the owning node's goroutine (its
// board engine) or, for originate-only nodes, from the coordinator between
// rounds.
//
// The BusConn may be one its owner closed earlier, recycled: a handle must
// not be used after Close.
func (b *Bus) Dial(from, to NodeID, port Port) *BusConn {
	node := b.nodes[from]
	var c *BusConn
	if k := len(node.connFree); k > 0 {
		c = node.connFree[k-1]
		node.connFree[k-1] = nil
		node.connFree = node.connFree[:k-1]
	} else {
		c = &BusConn{bus: b}
	}
	c.from, c.to, c.port = from, to, port
	node.conns = append(node.conns, c)
	return c
}

// Flush runs one delivery barrier. It must be called from the coordinator
// while every board engine is parked: it performs the queued dials, pushes
// queued chunks into target stacks (waking blocked readers), and drains each
// connection's responses into its inbox, all in fixed order.
//
// Finished connections (refused, or torn down by Close) are compacted out of
// the flush list here: they can never carry traffic again, and a building's
// connection-per-exchange head-end would otherwise grow every node's list
// without bound, turning the barrier O(rounds²). A finished connection its
// owner has closed goes to the node's free list for reuse by a later Dial.
// A refused one the owner has not closed stays with the owner — Refused,
// ReadAll, and Closed keep answering from the conn's own state after
// compaction — until the owner's Close recycles it.
func (b *Bus) Flush() {
	sc := b.phFlush.Begin()
	defer sc.End()
	for _, node := range b.nodes {
		live := node.conns[:0]
		for _, c := range node.conns {
			b.flushConn(node, c)
			if c.refused || c.done {
				if c.closeReq {
					node.putConn(c)
				}
				continue
			}
			live = append(live, c)
		}
		for i := len(live); i < len(node.conns); i++ {
			node.conns[i] = nil
		}
		node.conns = live
	}
}

// flushConn runs one connection's share of a barrier: the deferred dial,
// then the queued chunks oldest first, then the far side's answers. Every
// dial and chunk takes the fault hook's verdict, or the zero verdict (deliver)
// when no hook is installed. Chunk order is FIFO-pinned: the first held chunk
// holds every chunk behind it, each one barrier older. A connection torn
// down by Close while the hook holds its chunks discards them — they were in
// flight on a faulted link when the endpoint gave up, so they are lost, not
// delivered late.
func (b *Bus) flushConn(node *busNode, c *BusConn) {
	if c.refused || c.done {
		c.recycleOutbox(node)
		return
	}
	if c.host.c == nil {
		v := b.verdict(c, c.dialAge)
		if v.Hold {
			c.dialAge++
			if c.closeReq {
				// The dialer hung up before the faulted link ever carried the
				// dial: nothing to tear down on the far side.
				c.recycleOutbox(node)
				c.done = true
			}
			return
		}
		if v.Drop || !b.dial(c) {
			c.refused = true
			c.recycleOutbox(node)
			return
		}
	}
	kept := 0
	for _, q := range c.outbox {
		if c.eof {
			node.putChunk(q.chunk)
			continue
		}
		var v BusFault
		if kept == 0 {
			v = b.verdict(c, q.age)
		}
		if kept > 0 || v.Hold {
			c.outbox[kept] = queued{chunk: q.chunk, age: q.age + 1}
			kept++
			continue
		}
		if !v.Drop {
			b.deliver(c, q.chunk)
			if v.Dup && !c.eof {
				b.deliver(c, q.chunk)
			}
		}
		node.putChunk(q.chunk)
	}
	clear(c.outbox[kept:])
	c.outbox = c.outbox[:kept]
	c.drainHost()
	if c.closeReq {
		c.recycleOutbox(node)
		c.host.Close()
		c.done = true
	}
}

// verdict asks the fault hook about c's dial or one of its chunks; with no
// hook installed every verdict is the zero BusFault.
func (b *Bus) verdict(c *BusConn, age int) BusFault {
	if b.fault == nil {
		return BusFault{}
	}
	return b.fault(c.from, c.to, c.port, age)
}

// dial performs c's deferred stack dial, once the fault hook has released
// it. The admission guard runs first; a guard refusal, a stackless target,
// ErrNoListener and ErrBacklogFull all report false, which the bus surfaces
// as a refused connection, like a RST.
func (b *Bus) dial(c *BusConn) bool {
	if b.guard != nil && !b.guard(c.from, c.to, c.port) {
		return false
	}
	target := b.nodes[c.to].stack
	if target == nil {
		return false
	}
	host, err := target.Dial(c.port)
	if err != nil {
		return false
	}
	c.host = host
	return true
}

// deliver writes one chunk to the far side and fans it out to every tap,
// all taps sharing one payload copy they may retain. A write the far side
// refuses marks the connection at EOF. The stream and the taps keep copies,
// so the chunk may be recycled at once.
func (b *Bus) deliver(c *BusConn, chunk []byte) {
	if err := c.host.Write(chunk); err != nil {
		c.eof = true
		return
	}
	if len(b.taps) == 0 {
		return
	}
	cp := make([]byte, len(chunk))
	copy(cp, chunk)
	f := TapFrame{From: c.from, To: c.to, Port: c.port, Payload: cp}
	for _, fn := range b.taps {
		fn(f)
	}
}

// drainHost copies what the far side has written since the last barrier
// into the inbox and notes its EOF. An inbox the owner has read is started
// over first, which is why ReadAll's bytes are valid only until the next
// Flush.
func (c *BusConn) drainHost() {
	if c.inboxRead {
		c.inbox, c.inboxRead = c.inbox[:0], false
	}
	c.inbox = append(c.inbox, c.host.ReadAll()...)
	if c.host.Closed() {
		c.eof = true
	}
}

// BusConn is one node's handle on a cross-board connection. All methods
// must be called from the owning node's goroutine (see Bus.Dial); state
// transitions driven by the far side land at the next Flush.
type BusConn struct {
	bus      *Bus
	from, to NodeID
	port     Port

	host      HostConn // zero until the deferred dial succeeds
	outbox    []queued // chunks awaiting delivery, oldest first
	inbox     []byte   // responses copied in by Flush
	inboxRead bool     // ReadAll handed the inbox out
	refused   bool
	eof       bool
	closeReq  bool
	done      bool
	dialAge   int // barriers the fault hook has held the deferred dial
}

// queued is one chunk in a BusConn's outbox with its age: how many barriers
// the fault hook has already held it across.
type queued struct {
	chunk []byte
	age   int
}

// Write queues one chunk for delivery at the next Flush. The bytes are
// copied (into a chunk recycled from the owning node's free list), so the
// caller may reuse p.
func (c *BusConn) Write(p []byte) error {
	if c.refused {
		return fmt.Errorf("%w: bus node %d port %d", ErrNoListener, c.to, c.port)
	}
	if c.eof || c.closeReq || c.done {
		return ErrConnClosed
	}
	cp := append(c.bus.nodes[c.from].getChunk(), p...)
	c.outbox = append(c.outbox, queued{chunk: cp})
	return nil
}

// recycleOutbox discards every queued chunk, returning it to the owning
// node's free list, and resets the outbox for reuse. Called only at the
// Flush barrier, for a connection that will deliver nothing more.
func (c *BusConn) recycleOutbox(node *busNode) {
	for _, q := range c.outbox {
		node.putChunk(q.chunk)
	}
	clear(c.outbox)
	c.outbox = c.outbox[:0]
}

// ReadAll drains everything the far side has sent up to the last Flush.
// It never blocks; nil means nothing pending. The bytes live in the
// connection's own inbox and are valid until the next Flush.
func (c *BusConn) ReadAll() []byte {
	if c.inboxRead || len(c.inbox) == 0 {
		return nil
	}
	c.inboxRead = true
	return c.inbox
}

// Refused reports that the target had no listener (or a full backlog) when
// the deferred dial ran.
func (c *BusConn) Refused() bool { return c.refused }

// Closed reports that the far side has closed (EOF); queued responses may
// still be pending in the inbox.
func (c *BusConn) Closed() bool { return c.eof || c.done }

// Close requests teardown; the far side observes EOF at the next Flush.
// Close hands the BusConn back to the bus: it is recycled once finished
// (at the next Flush, or at once if it was refused), so the owner must drop
// its handle and not use it again.
func (c *BusConn) Close() {
	if c.closeReq {
		return
	}
	c.closeReq = true
	if c.refused {
		// Refused conns left the flush list at the barrier that refused
		// them; nothing else will recycle this one.
		c.bus.nodes[c.from].putConn(c)
	}
}
