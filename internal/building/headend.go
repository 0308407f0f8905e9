package building

import (
	"time"

	"mkbas/internal/bacnet"
	"mkbas/internal/bas"
	"mkbas/internal/vnet"
)

// The supervisory head-end: the building management system (BMS) every real
// BAS has at the top of its field bus. It is deliberately not a simulated
// process on some board — a head-end is foreign equipment from the rooms'
// point of view, so it lives on a stackless bus node and speaks to every
// room only through BACnet frames: legacy frames to unprotected rooms,
// secure-proxy frames to rooms behind a bump-in-the-wire. From here it polls
// temperatures, pushes building-wide setpoint schedules (demand-response),
// and raises the building alarm when any room looks wrong.
//
// Resilience is part of the head-end's job, not an afterthought: missed
// rooms are re-polled under capped exponential backoff, rooms whose dials
// are refused are marked UNREACHABLE (distinct from STALE — the cable is
// different from the silence), rooms whose responses repeatedly fail
// secure-proxy verification are quarantined, and the whole head-end role can
// fail over to a standby instance that watches the primary's poll traffic on
// the bus and takes over after a configured silence.

// SetpointEvent is one demand-response entry in the building schedule:
// at building time At, command every room to Value.
type SetpointEvent struct {
	At    time.Duration `json:"at"`
	Value float64       `json:"value"`
}

// alarmBand is the tolerated |room temperature − scheduled setpoint|, in °C,
// before the head-end flags a room out-of-band: the scenario alarm band.
const alarmBand = 2.0

// failoverPolls is how many poll periods without observed primary traffic
// make a standby head-end take over.
const failoverPolls = 3

// HeadEndConfig parameterises the BMS.
type HeadEndConfig struct {
	// PollPeriod is the per-room temperature polling interval; default 30s.
	PollPeriod time.Duration
	// StaleLimit is how many consecutive unanswered polls mark a room stale;
	// default 3. The same limit applied to consecutive refused dials marks a
	// room unreachable.
	StaleLimit int
	// TimeoutRounds is how many bus rounds the head-end waits for a response
	// before counting a poll as missed; default 5.
	TimeoutRounds int
	// Warmup suppresses out-of-band flagging while rooms heat from their
	// initial temperature toward the setpoint; default 15m. Staleness is
	// never suppressed.
	Warmup time.Duration
	// BackoffCap bounds the re-poll backoff for a missing room: after each
	// miss the room's poll interval doubles, up to this cap, and resets to
	// PollPeriod on the first successful harvest. Default 4×PollPeriod.
	BackoffCap time.Duration
	// QuarantineLimit is how many responses failing secure-proxy
	// verification (in a row, without a verified frame between them) put a
	// room in quarantine: the head-end stops talking to it and flags it.
	// Default 3. Legacy rooms are never quarantined — there is no
	// verification to fail.
	QuarantineLimit int
	// Schedule is the building-wide demand-response program, in building
	// time, applied in order.
	Schedule []SetpointEvent
}

func (c HeadEndConfig) withDefaults() HeadEndConfig {
	if c.PollPeriod <= 0 {
		c.PollPeriod = 30 * time.Second
	}
	if c.StaleLimit <= 0 {
		c.StaleLimit = 3
	}
	if c.TimeoutRounds <= 0 {
		c.TimeoutRounds = 5
	}
	if c.Warmup <= 0 {
		c.Warmup = 15 * time.Minute
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 4 * c.PollPeriod
	}
	if c.QuarantineLimit <= 0 {
		c.QuarantineLimit = 3
	}
	return c
}

// headClientBase offsets BMS client ids so they cannot collide with room-
// local secure clients in tests. The standby gets its own base: the proxy's
// replay window is per-client, so the standby's first frames after takeover
// must not look like replays of the primary's sequence space.
const (
	headClientBase    uint32 = 0xB0000000
	standbyClientBase uint32 = 0xB1000000
)

// headRoom is the head-end's view of one room.
type headRoom struct {
	index    int
	node     vnet.NodeID
	deviceID uint32
	secure   *bacnet.SecureClient // nil for legacy rooms

	// One outstanding request at a time, connection-per-exchange.
	conn      *vnet.BusConn
	def       bacnet.Deframer
	reqKind   bacnet.PDUType
	reqObj    bacnet.ObjectID
	invoke    uint8
	seq       uint8
	sentRound int

	wantSetpoint  float64 // the setpoint to write, while wantWrite is set
	wantWrite     bool
	lastPollRound int
	pollAlarm     bool // alternate temperature / alarm-point reads

	lastTemp    float64
	haveTemp    bool
	alarmOn     bool
	missed      int // consecutive unanswered requests
	writesAcked int

	// Resilience state. backoffRounds is the room's current poll interval in
	// rounds: pollRounds normally, doubling per miss up to the cap.
	// refusedStreak counts consecutive refused dials (the room's stack is
	// gone or the bus is dropping its traffic — unreachable, not merely
	// silent). reconverge marks a room that went stale and must be re-issued
	// the current scheduled setpoint on its first answer, in case it missed
	// a demand-response write during the outage.
	backoffRounds     int
	refusedStreak     int
	unreachableRounds int
	reconverge        bool
	badFrames         int
	quarantined       bool
}

// HeadEnd is the building management system — primary or standby. Exactly
// one instance is active at a time; the standby idles until the primary's
// bus traffic goes silent.
type HeadEnd struct {
	bus   *vnet.Bus
	node  vnet.NodeID
	cfg   HeadEndConfig
	slice time.Duration

	setpoint   float64
	schedIdx   int
	rooms      []*headRoom
	pollRounds int
	capRounds  int
	now        time.Duration

	pollsSent     int
	pollsAnswered int
	pollsMissed   int
	writesSent    int
	quarantines   int

	// Failover state. A primary is born active; a standby is born passive,
	// watching primaryNode's traffic through a bus tap (noteTap). Split
	// brain resolves by fixed node-id priority: the primary was added to the
	// bus first, so it holds the lower id and wins — a standby that sees
	// primary traffic again yields immediately.
	standby          bool
	active           bool
	primaryNode      vnet.NodeID
	sawPrimary       bool
	lastPrimaryRound int
	takeoverRound    int
	yields           int

	// onRoomOK fires on every verified harvest from a room; onQuarantine
	// once when a room is quarantined; onFailover once per standby takeover.
	// All run on the coordinator goroutine (OnRound context).
	onRoomOK     func(room int)
	onQuarantine func(room int)
	onFailover   func(round int)

	// Send-path scratch: BusConn.Write copies into a pooled chunk before
	// returning, so one encode (or seal) buffer and one frame buffer serve
	// every room.
	encBuf   []byte
	frameBuf []byte
}

// newHeadEnd attaches a BMS for the given rooms. initialSetpoint is the
// setpoint the rooms booted with (the band reference until the schedule
// overrides it).
func newHeadEnd(bus *vnet.Bus, node vnet.NodeID, rooms []*Room, initialSetpoint float64, slice time.Duration, cfg HeadEndConfig) *HeadEnd {
	cfg = cfg.withDefaults()
	h := &HeadEnd{
		bus:           bus,
		node:          node,
		cfg:           cfg,
		slice:         slice,
		setpoint:      initialSetpoint,
		active:        true,
		takeoverRound: -1,
	}
	h.pollRounds = int(cfg.PollPeriod / slice)
	if h.pollRounds < 1 {
		h.pollRounds = 1
	}
	h.capRounds = int(cfg.BackoffCap / slice)
	if h.capRounds < h.pollRounds {
		h.capRounds = h.pollRounds
	}
	for _, room := range rooms {
		hr := &headRoom{
			index:    room.Index,
			node:     room.Node,
			deviceID: room.DeviceID,
			// Stagger first polls one round apart so a 64-room building does
			// not synchronise every poll into the same bus round forever.
			lastPollRound: -h.pollRounds + room.Index%h.pollRounds,
			backoffRounds: h.pollRounds,
		}
		if room.Secure {
			hr.secure = bacnet.NewSecureClient(room.Key, headClientBase|uint32(room.Index))
		}
		h.rooms = append(h.rooms, hr)
	}
	return h
}

// newStandbyHeadEnd attaches a passive standby BMS that watches primaryNode's
// poll traffic (feed it delivered frames via noteTap) and takes over after
// failoverPolls poll periods of silence.
func newStandbyHeadEnd(bus *vnet.Bus, node, primaryNode vnet.NodeID, rooms []*Room, initialSetpoint float64, slice time.Duration, cfg HeadEndConfig) *HeadEnd {
	h := newHeadEnd(bus, node, rooms, initialSetpoint, slice, cfg)
	h.standby = true
	h.active = false
	h.primaryNode = primaryNode
	// The standby seals with its own client identity; see standbyClientBase.
	for i, hr := range h.rooms {
		if hr.secure != nil {
			hr.secure = bacnet.NewSecureClient(rooms[i].Key, standbyClientBase|uint32(hr.index))
		}
	}
	return h
}

// noteTap is the standby's view of the bus: the building feeds it every
// delivered frame, and frames originating from the primary prove the primary
// alive. Runs at the flush barrier on the coordinator goroutine.
func (h *HeadEnd) noteTap(from vnet.NodeID) {
	if h.standby && from == h.primaryNode {
		h.sawPrimary = true
	}
}

// Active reports whether this head-end currently owns the supervisory role.
func (h *HeadEnd) Active() bool { return h.active }

// TakeoverRound reports the round a standby took over (-1 if never).
func (h *HeadEnd) TakeoverRound() int { return h.takeoverRound }

// OnRound runs the BMS once per lockstep round, between the two bus
// barriers: it harvests responses delivered by the first Flush, advances the
// demand-response schedule, and queues the next requests for the second.
// All in fixed room order — the head-end is part of the determinism contract.
func (h *HeadEnd) OnRound(round int, now time.Duration) {
	h.now = now
	if h.standby && !h.checkFailover(round, now) {
		return
	}
	for _, r := range h.rooms {
		h.harvest(r, round)
		if r.refusedStreak >= h.cfg.StaleLimit {
			r.unreachableRounds++
		}
	}
	for h.schedIdx < len(h.cfg.Schedule) && now >= h.cfg.Schedule[h.schedIdx].At {
		v := h.cfg.Schedule[h.schedIdx].Value
		h.setpoint = v
		for _, r := range h.rooms {
			r.wantSetpoint, r.wantWrite = v, true
		}
		h.schedIdx++
	}
	for _, r := range h.rooms {
		h.issue(r, round)
	}
}

// checkFailover runs the standby's role state machine and reports whether
// the standby should act as the BMS this round. Detection and takeover are
// pure functions of round numbers and tap observations, both of which are
// fixed at the flush barrier — failover lands on the same round at any
// worker count.
func (h *HeadEnd) checkFailover(round int, now time.Duration) bool {
	if h.sawPrimary {
		h.sawPrimary = false
		h.lastPrimaryRound = round
		if h.active {
			// Split brain: the primary is back. Fixed node-id priority — the
			// primary holds the lower id — so the standby yields, abandoning
			// its in-flight exchanges.
			h.active = false
			h.yields++
			for _, r := range h.rooms {
				if r.conn != nil {
					h.closeExchange(r)
				}
			}
		}
		return false
	}
	if h.active {
		return true
	}
	if round-h.lastPrimaryRound < failoverPolls*h.pollRounds {
		return false
	}
	// Takeover. The standby rebuilds supervisory state from its own config
	// and clock: fast-forward the demand-response schedule to now, then
	// re-assert the scheduled setpoint to every room — a room may have
	// missed a write during the interregnum, and re-writing the same value
	// is idempotent for the rest.
	h.active = true
	h.takeoverRound = round
	for h.schedIdx < len(h.cfg.Schedule) && now >= h.cfg.Schedule[h.schedIdx].At {
		h.setpoint = h.cfg.Schedule[h.schedIdx].Value
		h.schedIdx++
	}
	for _, r := range h.rooms {
		r.wantSetpoint, r.wantWrite = h.setpoint, true
		// Restart polling staggered from the takeover round, exactly like a
		// primary's boot stagger.
		r.lastPollRound = round - h.pollRounds + r.index%h.pollRounds
	}
	if h.onFailover != nil {
		h.onFailover(round)
	}
	return true
}

// harvest drains one room's in-flight exchange.
func (h *HeadEnd) harvest(r *headRoom, round int) {
	if r.conn == nil {
		return
	}
	if r.conn.Refused() {
		r.refusedStreak++
		h.miss(r)
		return
	}
	// The dial went through, so the room's stack is up — any prior refusal
	// streak is over even if this exchange times out.
	r.refusedStreak = 0
	r.def.Feed(r.conn.ReadAll())
	for {
		raw := r.def.Next()
		if raw == nil {
			break
		}
		var pdu bacnet.PDU
		var err error
		if r.secure != nil {
			pdu, err = r.secure.Open(raw)
			if err != nil {
				// A frame on the room's connection that fails verification is
				// either corruption or an impersonation attempt. Repeatedly is
				// a compromised path: quarantine the room rather than keep
				// soliciting forgeries.
				r.badFrames++
				if !r.quarantined && r.badFrames >= h.cfg.QuarantineLimit {
					r.quarantined = true
					h.quarantines++
					h.closeExchange(r)
					if h.onQuarantine != nil {
						h.onQuarantine(r.index)
					}
					return
				}
				continue
			}
		} else {
			pdu, err = bacnet.DecodePDU(raw)
			if err != nil {
				continue
			}
		}
		if pdu.InvokeID != r.invoke {
			continue // not our answer (stale or replayed)
		}
		switch r.reqKind {
		case bacnet.ReadProperty:
			if pdu.Type == bacnet.Ack {
				switch r.reqObj {
				case bacnet.ObjTemperature:
					r.lastTemp = pdu.Value
					r.haveTemp = true
				case bacnet.ObjAlarm:
					r.alarmOn = pdu.Value != 0
				}
			}
			h.pollsAnswered++
		case bacnet.WriteProperty:
			if pdu.Type == bacnet.Ack {
				r.writesAcked++
			}
		}
		// A verified answer resets the whole resilience ledger for the room
		// and, if it had gone stale, queues the re-convergence write.
		wasOut := r.missed >= h.cfg.StaleLimit || r.reconverge
		r.missed = 0
		r.badFrames = 0
		r.backoffRounds = h.pollRounds
		if wasOut {
			r.reconverge = false
			if !r.wantWrite {
				r.wantSetpoint, r.wantWrite = h.setpoint, true
			}
		}
		if h.onRoomOK != nil {
			h.onRoomOK(r.index)
		}
		h.closeExchange(r)
		return
	}
	if round-r.sentRound >= h.cfg.TimeoutRounds {
		h.miss(r)
	}
}

func (h *HeadEnd) miss(r *headRoom) {
	r.missed++
	if r.missed >= h.cfg.StaleLimit {
		r.reconverge = true
	}
	// Capped exponential backoff: each miss doubles the room's poll
	// interval so a dead room does not eat the bus, capped so recovery is
	// noticed within BackoffCap.
	r.backoffRounds *= 2
	if r.backoffRounds > h.capRounds {
		r.backoffRounds = h.capRounds
	}
	if r.reqKind == bacnet.ReadProperty {
		h.pollsMissed++
	}
	h.closeExchange(r)
}

func (h *HeadEnd) closeExchange(r *headRoom) {
	r.conn.Close()
	r.conn = nil
	r.def.Reset()
}

// issue queues one room's next request: a pending scheduled write wins over
// a due poll. Quarantined rooms get nothing — the head-end has stopped
// trusting the path.
func (h *HeadEnd) issue(r *headRoom, round int) {
	if r.conn != nil || r.quarantined {
		return
	}
	switch {
	case r.wantWrite:
		h.send(r, round, bacnet.PDU{
			Type: bacnet.WriteProperty, Device: r.deviceID,
			Object: bacnet.ObjSetpoint, Value: r.wantSetpoint,
		})
		r.wantWrite = false
		h.writesSent++
	case round-r.lastPollRound >= r.backoffRounds:
		// Alternate between the temperature and alarm points: a room whose
		// sensor path is dead keeps reporting its last believed temperature,
		// so the controller's own failsafe alarm is the only truthful signal.
		obj := bacnet.ObjTemperature
		if r.pollAlarm {
			obj = bacnet.ObjAlarm
		}
		r.pollAlarm = !r.pollAlarm
		h.send(r, round, bacnet.PDU{
			Type: bacnet.ReadProperty, Device: r.deviceID,
			Object: obj,
		})
		r.lastPollRound = round
		h.pollsSent++
	}
}

func (h *HeadEnd) send(r *headRoom, round int, pdu bacnet.PDU) {
	r.seq++
	pdu.InvokeID = r.seq
	r.invoke = r.seq
	r.reqKind = pdu.Type
	r.reqObj = pdu.Object
	r.sentRound = round
	if r.secure != nil {
		h.encBuf = r.secure.AppendSeal(h.encBuf[:0], pdu)
	} else {
		h.encBuf = pdu.AppendEncode(h.encBuf[:0])
	}
	h.frameBuf = bacnet.AppendFrame(h.frameBuf[:0], h.encBuf)
	r.conn = h.bus.Dial(h.node, r.node, bas.BACnetPort)
	_ = r.conn.Write(h.frameBuf)
}

// RoomState is the BMS's judgement of one room.
type RoomState struct {
	Room     int     `json:"room"`
	Secure   bool    `json:"secure"`
	HaveTemp bool    `json:"have_temp"`
	Temp     float64 `json:"temp"`
	Missed   int     `json:"missed"`
	Stale    bool    `json:"stale"`
	// Unreachable marks a room whose dials are being refused (StaleLimit
	// consecutive refusals): the path is down, not merely silent.
	Unreachable       bool `json:"unreachable"`
	UnreachableRounds int  `json:"unreachable_rounds"`
	// Quarantined marks a room the head-end stopped polling because its
	// responses repeatedly failed secure-proxy verification.
	Quarantined bool `json:"quarantined"`
	OutOfBand   bool `json:"out_of_band"`
	AlarmOn     bool `json:"alarm_on"`
	Flagged     bool `json:"flagged"`
	Writes      int  `json:"writes_acked"`
}

// RoomStates evaluates every room against the current schedule, in room
// order.
func (h *HeadEnd) RoomStates() []RoomState {
	out := make([]RoomState, 0, len(h.rooms))
	for _, r := range h.rooms {
		st := RoomState{
			Room:   r.index,
			Secure: r.secure != nil,
			Temp:   r.lastTemp, HaveTemp: r.haveTemp,
			Missed: r.missed,
			Writes: r.writesAcked,
		}
		st.Stale = r.missed >= h.cfg.StaleLimit
		st.Unreachable = r.refusedStreak >= h.cfg.StaleLimit
		st.UnreachableRounds = r.unreachableRounds
		st.Quarantined = r.quarantined
		if h.now >= h.cfg.Warmup {
			// Out-of-band and alarm relays are suppressed during warm-up
			// (every room boots cold and legitimately out of band).
			if r.haveTemp {
				dev := r.lastTemp - h.setpoint
				if dev < 0 {
					dev = -dev
				}
				st.OutOfBand = dev > alarmBand
			}
			st.AlarmOn = r.alarmOn
		}
		st.Flagged = st.Stale || st.Unreachable || st.Quarantined || st.OutOfBand || st.AlarmOn
		out = append(out, st)
	}
	return out
}

// Setpoint is the currently scheduled building-wide setpoint.
func (h *HeadEnd) Setpoint() float64 { return h.setpoint }

// Alarm reports the building alarm: any room flagged.
func (h *HeadEnd) Alarm() bool {
	for _, st := range h.RoomStates() {
		if st.Flagged {
			return true
		}
	}
	return false
}
