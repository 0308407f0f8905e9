package building

import (
	"testing"
	"time"

	"mkbas/internal/bacnet"
	"mkbas/internal/bas"
	"mkbas/internal/vnet"
)

// fakeRoomNode is a scripted room on the bus for head-end unit tests: it can
// stay deaf (no listener), accept but never answer, answer polls like a legacy
// BACnet device, or answer with garbage that fails secure-proxy verification.
type fakeRoomNode struct {
	stack *vnet.Stack
	l     *vnet.Listener
	conns []*vnet.Conn
	defs  []*bacnet.Deframer
	mode  string // "silent", "echo", "garbage"
	temp  float64
}

func (n *fakeRoomNode) listen(t *testing.T) {
	t.Helper()
	l, err := n.stack.Listen(bas.BACnetPort)
	if err != nil {
		t.Fatal(err)
	}
	n.l = l
}

// serve runs the room's board phase for one round: accept pending dials, read
// delivered requests, and queue responses per the scripted mode.
func (n *fakeRoomNode) serve() {
	if n.l == nil {
		return
	}
	for {
		c, err := n.stack.Accept(n.l)
		if err != nil {
			break
		}
		n.conns = append(n.conns, c)
		n.defs = append(n.defs, &bacnet.Deframer{})
	}
	for i, c := range n.conns {
		data, err := n.stack.BoardRead(c, 0)
		if err != nil {
			continue
		}
		n.defs[i].Feed(data)
		for {
			raw := n.defs[i].Next()
			if raw == nil {
				break
			}
			switch n.mode {
			case "echo":
				pdu, err := bacnet.DecodePDU(raw)
				if err != nil {
					continue
				}
				resp := bacnet.PDU{
					Type: bacnet.Ack, Device: pdu.Device,
					Object: pdu.Object, InvokeID: pdu.InvokeID,
				}
				if pdu.Type == bacnet.ReadProperty && pdu.Object == bacnet.ObjTemperature {
					resp.Value = n.temp
				}
				_ = n.stack.BoardWrite(c, bacnet.AppendFrame(nil, resp.AppendEncode(nil)))
			case "garbage":
				// Three unverifiable frames per request: enough to trip the
				// default QuarantineLimit in a single harvest.
				for k := 0; k < 3; k++ {
					_ = n.stack.BoardWrite(c, bacnet.AppendFrame(nil, []byte("not-a-sealed-frame")))
				}
			}
		}
	}
}

// headHarness wires one fake room under a head-end with a 1s bus slice.
func headHarness(t *testing.T, secure bool, cfg HeadEndConfig) (*vnet.Bus, *HeadEnd, *fakeRoomNode) {
	t.Helper()
	node := &fakeRoomNode{stack: vnet.NewStack(), mode: "silent", temp: 20}
	bus := vnet.NewBus()
	roomID := bus.AddNode("room00", node.stack)
	headID := bus.AddNode("bms", nil)
	room := &Room{Index: 0, Node: roomID, DeviceID: 1}
	if secure {
		room.Secure = true
		room.Key = []byte("room-key")
	}
	h := newHeadEnd(bus, headID, []*Room{room}, 20, time.Second, cfg)
	return bus, h, node
}

// driveRound runs one lockstep round: board phase, barrier, BMS, barrier.
func driveRound(bus *vnet.Bus, h *HeadEnd, node *fakeRoomNode, round int) {
	node.serve()
	bus.Flush()
	h.OnRound(round, time.Duration(round)*time.Second)
	bus.Flush()
}

func TestHeadEndStaleExactlyAtLimitAndNotSuppressedByWarmup(t *testing.T) {
	// The room accepts polls but never answers: misses accrue one timeout at
	// a time, and the stale flag must flip exactly at StaleLimit — while the
	// building is still deep inside the warm-up window.
	cfg := HeadEndConfig{
		PollPeriod: 2 * time.Second, StaleLimit: 3, TimeoutRounds: 2,
		Warmup: time.Hour,
	}
	bus, h, node := headHarness(t, false, cfg)
	node.listen(t)

	sawBoundary, sawStale := false, false
	for round := 1; round <= 40 && !sawStale; round++ {
		driveRound(bus, h, node, round)
		st := h.RoomStates()[0]
		switch st.Missed {
		case cfg.StaleLimit - 1:
			if st.Stale {
				t.Fatalf("round %d: stale at %d misses, limit is %d", round, st.Missed, cfg.StaleLimit)
			}
			sawBoundary = true
		case cfg.StaleLimit:
			if !st.Stale || !st.Flagged {
				t.Fatalf("round %d: state = %+v, want stale+flagged at the limit", round, st)
			}
			if st.OutOfBand || st.AlarmOn {
				t.Fatalf("round %d: band/alarm flags active during warm-up: %+v", round, st)
			}
			sawStale = true
		}
	}
	if !sawBoundary || !sawStale {
		t.Fatalf("never observed the stale boundary (boundary=%v stale=%v)", sawBoundary, sawStale)
	}
	if !h.Alarm() {
		t.Fatal("building alarm not raised for a stale room during warm-up")
	}
}

func TestHeadEndBackoffCapsThenResetsOnRecovery(t *testing.T) {
	// No listener at all: every dial is refused, so the room goes
	// UNREACHABLE (not merely stale) and its re-poll interval doubles up to
	// the cap. When the room comes back, one verified answer must reset the
	// whole resilience ledger and re-issue the scheduled setpoint.
	cfg := HeadEndConfig{
		PollPeriod: time.Second, StaleLimit: 2, TimeoutRounds: 2,
		BackoffCap: 4 * time.Second, Warmup: time.Hour,
	}
	bus, h, node := headHarness(t, false, cfg)
	okCount := 0
	h.onRoomOK = func(room int) { okCount++ }

	round := 0
	for i := 0; i < 30; i++ {
		round++
		driveRound(bus, h, node, round)
	}
	if h.rooms[0].backoffRounds != h.capRounds {
		t.Fatalf("backoff = %d rounds after a long outage, want cap %d", h.rooms[0].backoffRounds, h.capRounds)
	}
	st := h.RoomStates()[0]
	if !st.Unreachable || st.UnreachableRounds == 0 {
		t.Fatalf("state after refused dials = %+v, want unreachable", st)
	}
	if st.Stale != (st.Missed >= cfg.StaleLimit) {
		t.Fatalf("stale bookkeeping inconsistent: %+v", st)
	}
	if okCount != 0 {
		t.Fatalf("onRoomOK fired %d times with no listener", okCount)
	}

	// The room returns.
	node.listen(t)
	node.mode = "echo"
	node.temp = 21
	for i := 0; i < 10; i++ {
		round++
		driveRound(bus, h, node, round)
	}
	st = h.RoomStates()[0]
	if st.Unreachable || st.Stale || st.Missed != 0 {
		t.Fatalf("state after recovery = %+v", st)
	}
	if !st.HaveTemp || st.Temp != 21 {
		t.Fatalf("recovered temp = %+v", st)
	}
	if h.rooms[0].backoffRounds != h.pollRounds {
		t.Fatalf("backoff = %d rounds after recovery, want reset to %d", h.rooms[0].backoffRounds, h.pollRounds)
	}
	if h.rooms[0].refusedStreak != 0 {
		t.Fatalf("refused streak = %d after recovery", h.rooms[0].refusedStreak)
	}
	// The room was out through at least one schedule-free period, so the
	// head-end must have re-issued the current setpoint (re-convergence).
	if h.writesSent == 0 {
		t.Fatal("no re-convergence write after the room returned from an outage")
	}
	if okCount == 0 {
		t.Fatal("onRoomOK never fired after recovery")
	}
}

func TestHeadEndQuarantinesRoomOnUnverifiableResponses(t *testing.T) {
	// A secure room that answers with frames failing proxy verification is a
	// compromised path: after QuarantineLimit bad frames the head-end must
	// stop soliciting it entirely.
	cfg := HeadEndConfig{
		PollPeriod: time.Second, QuarantineLimit: 3, Warmup: time.Hour,
	}
	bus, h, node := headHarness(t, true, cfg)
	node.listen(t)
	node.mode = "garbage"
	quarantined := -1
	h.onQuarantine = func(room int) { quarantined = room }

	round := 0
	for i := 0; i < 10; i++ {
		round++
		driveRound(bus, h, node, round)
	}
	st := h.RoomStates()[0]
	if !st.Quarantined || !st.Flagged {
		t.Fatalf("state = %+v, want quarantined+flagged", st)
	}
	if quarantined != 0 {
		t.Fatalf("onQuarantine room = %d, want 0", quarantined)
	}
	if h.quarantines != 1 {
		t.Fatalf("quarantine count = %d, want 1", h.quarantines)
	}

	// Quarantine is terminal: no further polls or writes go to the room.
	polls, writes := h.pollsSent, h.writesSent
	for i := 0; i < 10; i++ {
		round++
		driveRound(bus, h, node, round)
	}
	if h.pollsSent != polls || h.writesSent != writes {
		t.Fatalf("traffic to a quarantined room: polls %d→%d writes %d→%d",
			polls, h.pollsSent, writes, h.writesSent)
	}
	if !h.Alarm() {
		t.Fatal("building alarm not raised for a quarantined room")
	}
}
