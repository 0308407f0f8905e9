package vnet

import (
	"fmt"

	"mkbas/internal/perf"
)

// The inter-board BAS bus. A Bus joins the per-board Stacks of a multi-room
// building into one shared field network, the way a BACnet/IP segment joins
// every controller in a real building: any node can dial any other node's
// ports, and — deliberately, like the legacy bus the paper criticises — any
// node can observe every frame in flight (SetTap).
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
	c.recycleHeld(n)
	c.host = HostConn{}
	c.inbox, c.inboxRead = c.inbox[:0], false
	c.refused, c.eof, c.closeReq, c.done = false, false, false, false
	c.dialAge = 0
	n.connFree = append(n.connFree, c)
}

// Bus is the building's shared field network.
type Bus struct {
	nodes []*busNode
	tap   func(TapFrame)
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

// SetTap installs fn to observe every delivered chunk during Flush — the
// shared-medium exposure an on-bus attacker exploits to capture frames for
// replay. Only one tap is supported; nil removes it.
func (b *Bus) SetTap(fn func(TapFrame)) { b.tap = fn }

// AddTap appends a system tap that observes every delivered chunk alongside
// the SetTap tap. System taps are how legitimate passive equipment (the
// standby head-end watching the primary's traffic) listens on the shared
// medium without displacing an attacker's SetTap. Taps cannot be removed;
// all taps share one payload copy per delivered chunk.
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
// nil removes it and restores the zero-cost delivery path.
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
			if b.fault == nil {
				b.flushConn(node, c)
			} else {
				b.flushConnFaulty(node, c)
			}
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

func (b *Bus) flushConn(node *busNode, c *BusConn) {
	if c.refused || c.done {
		c.recycleOutbox(node)
		return
	}
	if c.host.c == nil {
		if b.guard != nil && !b.guard(c.from, c.to, c.port) {
			c.refused = true
			c.recycleOutbox(node)
			return
		}
		target := b.nodes[c.to]
		if target.stack == nil {
			c.refused = true
			c.recycleOutbox(node)
			return
		}
		host, err := target.stack.Dial(c.port)
		if err != nil {
			// ErrNoListener or ErrBacklogFull: the bus reports both as a
			// refused connection, like a RST.
			c.refused = true
			c.recycleOutbox(node)
			return
		}
		c.host = host
	}
	for _, chunk := range c.outbox {
		if err := c.host.Write(chunk); err != nil {
			c.eof = true
			break
		}
		if b.tap != nil || len(b.taps) > 0 {
			b.deliverTap(c.from, c.to, c.port, chunk)
		}
	}
	c.recycleOutbox(node)
	c.drainHost()
	if c.closeReq {
		c.host.Close()
		c.done = true
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

// deliverTap fans one delivered chunk out to every installed tap. All taps
// share a single payload copy; taps may retain it.
func (b *Bus) deliverTap(from, to NodeID, port Port, chunk []byte) {
	cp := make([]byte, len(chunk))
	copy(cp, chunk)
	f := TapFrame{From: from, To: to, Port: port, Payload: cp}
	if b.tap != nil {
		b.tap(f)
	}
	for _, fn := range b.taps {
		fn(f)
	}
}

// flushConnFaulty is flushConn with the fault hook interposed. Frames move
// from the outbox into a held queue carrying per-frame ages; at each barrier
// the hook adjudicates them oldest first, FIFO-pinned (the first Hold blocks
// everything behind it). A connection torn down by Close while the hook
// holds its frames discards them — the frames were in flight on a faulted
// link when the endpoint gave up, so they are lost, not delivered late.
func (b *Bus) flushConnFaulty(node *busNode, c *BusConn) {
	if c.refused || c.done {
		c.recycleHeld(node)
		c.recycleOutbox(node)
		return
	}
	if c.host.c == nil {
		v := b.fault(c.from, c.to, c.port, c.dialAge)
		switch {
		case v.Hold:
			c.dialAge++
			if c.closeReq {
				// The dialer hung up before the faulted link ever carried the
				// dial: nothing to tear down on the far side.
				c.recycleHeld(node)
				c.recycleOutbox(node)
				c.done = true
			}
			return
		case v.Drop:
			c.refused = true
			c.recycleHeld(node)
			c.recycleOutbox(node)
			return
		}
		// The fault hook released the dial; the admission guard runs now, at
		// the flush that actually performs it.
		if b.guard != nil && !b.guard(c.from, c.to, c.port) {
			c.refused = true
			c.recycleHeld(node)
			c.recycleOutbox(node)
			return
		}
		target := b.nodes[c.to]
		if target.stack == nil {
			c.refused = true
			c.recycleHeld(node)
			c.recycleOutbox(node)
			return
		}
		host, err := target.stack.Dial(c.port)
		if err != nil {
			c.refused = true
			c.recycleHeld(node)
			c.recycleOutbox(node)
			return
		}
		c.host = host
	}
	for _, chunk := range c.outbox {
		c.held = append(c.held, chunk)
		c.heldAge = append(c.heldAge, 0)
	}
	for i := range c.outbox {
		c.outbox[i] = nil
	}
	c.outbox = c.outbox[:0]
	kept := 0
	blocked := false
	for i, chunk := range c.held {
		if c.eof {
			node.putChunk(chunk)
			continue
		}
		if !blocked {
			v := b.fault(c.from, c.to, c.port, c.heldAge[i])
			switch {
			case v.Hold:
				blocked = true
			case v.Drop:
				node.putChunk(chunk)
				continue
			default:
				if err := c.host.Write(chunk); err != nil {
					c.eof = true
					node.putChunk(chunk)
					continue
				}
				if b.tap != nil || len(b.taps) > 0 {
					b.deliverTap(c.from, c.to, c.port, chunk)
				}
				if v.Dup {
					if err := c.host.Write(chunk); err != nil {
						c.eof = true
					} else if b.tap != nil || len(b.taps) > 0 {
						b.deliverTap(c.from, c.to, c.port, chunk)
					}
				}
				node.putChunk(chunk)
				continue
			}
		}
		c.held[kept] = chunk
		c.heldAge[kept] = c.heldAge[i] + 1
		kept++
	}
	for i := kept; i < len(c.held); i++ {
		c.held[i] = nil
	}
	c.held = c.held[:kept]
	c.heldAge = c.heldAge[:kept]
	c.drainHost()
	if c.closeReq {
		c.recycleHeld(node)
		c.host.Close()
		c.done = true
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
	outbox    [][]byte // chunks queued for the next Flush
	inbox     []byte   // responses copied in by Flush
	inboxRead bool     // ReadAll handed the inbox out
	refused   bool
	eof       bool
	closeReq  bool
	done      bool

	// Fault-hook state (untouched when no hook is installed): frames held
	// across barriers with their per-frame ages, and how many barriers the
	// deferred dial has been held.
	held    [][]byte
	heldAge []int
	dialAge int
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
	c.outbox = append(c.outbox, cp)
	return nil
}

// recycleOutbox returns delivered (or dropped) chunks to the owning node's
// free list and resets the outbox for reuse. Called only at the Flush
// barrier. The target stack copied each chunk on Write, so nothing retains
// the recycled bytes.
func (c *BusConn) recycleOutbox(node *busNode) {
	for i, chunk := range c.outbox {
		node.putChunk(chunk)
		c.outbox[i] = nil
	}
	c.outbox = c.outbox[:0]
}

// recycleHeld returns fault-held chunks to the owning node's free list —
// frames lost on a faulted link when their connection died.
func (c *BusConn) recycleHeld(node *busNode) {
	for i, chunk := range c.held {
		node.putChunk(chunk)
		c.held[i] = nil
	}
	c.held = c.held[:0]
	c.heldAge = c.heldAge[:0]
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
