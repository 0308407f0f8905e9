package attack

import (
	"fmt"
	"strings"
	"time"

	"mkbas/internal/bacnet"
	"mkbas/internal/bas"
	"mkbas/internal/building"
	"mkbas/internal/faultinject"
	"mkbas/internal/perf"
	"mkbas/internal/safety"
	"mkbas/internal/vnet"
)

// The lateral-movement scenario (experiment E11): the paper's single-board
// threat model scaled to a building. The web interface of room 0 is
// compromised; instead of (or after) fighting its own board's mediation, the
// attacker pivots onto the inter-board BAS bus — the flat legacy field
// network every room shares — and attacks its siblings from there:
//
//   - spoofing: forged legacy WriteProperty frames that command sibling
//     setpoints to a damaging value;
//   - replay: frames captured off the shared medium (the head-end's own
//     traffic) played back verbatim at secure rooms.
//
// Rooms behind the secure proxy reject both (HMAC + nonce freshness);
// legacy rooms accept the forgery and physically overheat. The per-room
// verdict table is the building-scale version of the paper's Section IV-D
// comparison.

// BuildingSpec configures one lateral-movement run.
type BuildingSpec struct {
	// Rooms, Mix, Secure, Recovery, Seed, Slice mirror building.Config.
	Rooms    int            `json:"rooms"`
	Mix      []bas.Platform `json:"mix"`
	Secure   []bool         `json:"secure"`
	Recovery bool           `json:"recovery,omitempty"`
	Seed     int64          `json:"seed,omitempty"`
	Slice    time.Duration  `json:"slice,omitempty"`
	// Workers only trades wall-clock time; it is excluded from the report
	// JSON so runs at different worker counts stay byte-identical.
	Workers int `json:"-"`
	// Attack enables the room-0 attacker; false runs the baseline building.
	Attack bool `json:"attack"`
	// Settle is how long the building runs before the attacker wakes
	// (default 30m); Window is the attack window after it (default 90m).
	Settle time.Duration `json:"settle"`
	Window time.Duration `json:"window"`
	// Faults arms builtin fault-injection plans per room (building.Config).
	Faults map[int]string `json:"faults,omitempty"`
	// BusFaults arms a bus-level fault plan on the building: partitions,
	// frame drops/delays/duplication, head-end crash (building.Config).
	BusFaults string `json:"bus_faults,omitempty"`
	// Standby attaches the standby head-end (building.Config.Standby).
	Standby bool `json:"standby,omitempty"`
	// TenantAPI attaches the building-scale tenant API tier with its
	// deterministic per-round occupant traffic (building.Config.TenantAPI).
	TenantAPI bool `json:"tenant_api,omitempty"`
	// Monitor attaches the online policy monitor to every board and arms the
	// bus dial guard in observe-only mode (building.Config.Monitor).
	Monitor bool `json:"monitor,omitempty"`
	// Demote upgrades the monitor to enforcement: uncertified bus dials are
	// refused and the offending room's web subject is demoted to the
	// untrusted origin (building.Config.Demote). Implies Monitor.
	Demote bool `json:"demote,omitempty"`
	// Profiler attaches the host-side performance profiler to the building
	// (building.Config.Profiler). Excluded from the report JSON like Workers:
	// host profiling must not perturb the byte-identical contract.
	Profiler *perf.Profiler `json:"-"`
}

func (s BuildingSpec) withDefaults() BuildingSpec {
	if s.Settle <= 0 {
		s.Settle = settleTime
	}
	if s.Window <= 0 {
		s.Window = 90 * time.Minute
	}
	return s
}

// Duration reports the virtual time one run of the spec simulates (settle
// plus attack window, after defaulting) — the numerator of bench step-rates.
func (s BuildingSpec) Duration() time.Duration {
	s = s.withDefaults()
	return s.Settle + s.Window
}

// RoomOutcome is one room's row in the lateral-movement verdict table.
type RoomOutcome struct {
	Room     int    `json:"room"`
	Platform string `json:"platform"`
	Secure   bool   `json:"secure"`
	// Verdict: FOOTHOLD for the attacker's own room; COMPROMISED when
	// ground-truth safety monitors recorded violations (or the controller
	// died); RECOVERED when every violation falls inside an injected fault's
	// effect window and the controller is back up — the room was hurt by the
	// fault, not beaten by it; else SECURE.
	Verdict string `json:"verdict"`

	ControllerAlive bool `json:"controller_alive"`
	Violations      int  `json:"violations"`

	// The attacker's per-room tally: forged legacy writes and captured-frame
	// replays, split by whether the room answered with an Ack.
	ForgedAccepted  int `json:"forged_accepted"`
	ForgedDenied    int `json:"forged_denied"`
	ReplaysAccepted int `json:"replays_accepted"`
	ReplaysDenied   int `json:"replays_denied"`

	// FramesRejected is the room gateway's own drop counter (secure proxy).
	FramesRejected int64 `json:"frames_rejected"`
	// BMSFlagged: the supervisory head-end flagged this room.
	BMSFlagged bool `json:"bms_flagged"`

	Restarts  int  `json:"restarts,omitempty"`
	Recovered bool `json:"recovered,omitempty"`

	// Resilience columns: rounds the BMS could not reach the room at all,
	// whether the BMS quarantined it, head-end failovers the room observed,
	// and how many of its safety violations fall inside a fault's effect
	// window (its own board campaign or its share of the bus campaign).
	UnreachableRounds     int  `json:"unreachable_rounds,omitempty"`
	Quarantined           bool `json:"quarantined,omitempty"`
	Failovers             int  `json:"failovers,omitempty"`
	ViolationsDuringFault int  `json:"violations_during_fault,omitempty"`

	// Policy-monitor columns (absent unless BuildingSpec.Monitor/Demote).
	PolicyDrifts int64 `json:"policy_drifts,omitempty"`
	OriginDrifts int64 `json:"origin_drifts,omitempty"`
	BusDrifts    int64 `json:"bus_drifts,omitempty"`
	BusRefused   int64 `json:"bus_refused,omitempty"`
	Demoted      bool  `json:"demoted,omitempty"`
}

// BuildingReport is the outcome of one building run.
type BuildingReport struct {
	Spec     BuildingSpec  `json:"spec"`
	Outcomes []RoomOutcome `json:"outcomes"`

	// Alarm/Flagged: the head-end's final judgement.
	Alarm   bool  `json:"alarm"`
	Flagged []int `json:"flagged"`

	// CapturedFrames counts head-end frames the attacker sniffed off the bus.
	CapturedFrames int `json:"captured_frames"`
	// Notes carries attacker observations.
	Notes []string `json:"notes,omitempty"`

	// Building is the full per-room + aggregate building report.
	Building *building.Report `json:"building"`
}

// Compromised lists rooms whose verdict is COMPROMISED.
func (r *BuildingReport) Compromised() []int {
	var out []int
	for _, o := range r.Outcomes {
		if o.Verdict == "COMPROMISED" {
			out = append(out, o.Room)
		}
	}
	return out
}

// attackSetpoint is the forged sibling setpoint: inside the controller's
// permitted range (so legacy rooms accept it) but far outside the safety
// band (so accepting it is a physical compromise).
const attackSetpoint = 28.0

// probeHarvestDelay is how long the attacker leaves a probe connection open
// before reading the answer and hanging up — two bus rounds covers the
// round-trip, and closing promptly keeps the serial gateways available for
// the head-end's polls.
const probeHarvestDelay = 2 * time.Second

// sealedHeaderLen mirrors the secure frame layout (client id 4, nonce 8,
// MAC 32). The attacker cannot forge the MAC, but the layout is public — it
// uses the offset to pick WriteProperty frames out of its captures.
const sealedHeaderLen = 4 + 8 + 32

// pendingProbe is one in-flight attack frame awaiting its answer.
type pendingProbe struct {
	room   int
	replay bool
	conn   *vnet.BusConn
}

// lateralAttacker runs inside room 0's virtual machine: its callbacks
// execute on room 0's engine (the compromised web interface's board), its
// frames originate from room 0's bus node, and its bus tap models the shared
// medium any on-bus device can sniff.
type lateralAttacker struct {
	b        *building.Building
	interval time.Duration

	// Per sibling room: the freshest captured head-end frame (any), and the
	// freshest captured WriteProperty (preferred for replay).
	capturedAny   [][]byte
	capturedWrite [][]byte
	captureCount  int

	pending []pendingProbe
	seq     uint8

	forgedAccepted, forgedDenied   []int
	replaysAccepted, replaysDenied []int
	notes                          []string
}

func newLateralAttacker(b *building.Building) *lateralAttacker {
	n := len(b.Rooms)
	return &lateralAttacker{
		b:               b,
		interval:        time.Minute,
		capturedAny:     make([][]byte, n),
		capturedWrite:   make([][]byte, n),
		forgedAccepted:  make([]int, n),
		forgedDenied:    make([]int, n),
		replaysAccepted: make([]int, n),
		replaysDenied:   make([]int, n),
	}
}

// arm installs the bus tap (capture starts immediately — the attacker sniffs
// the settle phase's head-end traffic) and schedules the first volley on
// room 0's clock.
func (a *lateralAttacker) arm(settle time.Duration) {
	a.b.Bus.AddTap(a.tap)
	a.after(settle, a.volley)
	a.note("foothold: room 0 web interface (%s), pivoting onto the BAS bus", a.b.Rooms[0].Platform)
}

func (a *lateralAttacker) after(d time.Duration, fn func()) {
	a.b.Rooms[0].Testbed.Machine.Clock().After(d, fn)
}

func (a *lateralAttacker) note(format string, args ...any) {
	a.notes = append(a.notes, fmt.Sprintf(format, args...))
}

// tap observes every delivered bus chunk (the coordinator calls it during
// the delivery barrier, so it must only touch capture state). The attacker
// keeps the freshest head-end frame per secure sibling, preferring
// WriteProperty — the frame worth replaying.
func (a *lateralAttacker) tap(f vnet.TapFrame) {
	if f.From != a.b.HeadNode() || f.Port != bas.BACnetPort {
		return
	}
	room := int(f.To)
	if room <= 0 || room >= len(a.b.Rooms) || !a.b.Rooms[room].Secure {
		return
	}
	a.captureCount++
	a.capturedAny[room] = f.Payload
	var d bacnet.Deframer
	d.Feed(f.Payload)
	raw := d.Next()
	if raw == nil || len(raw) < sealedHeaderLen {
		return
	}
	if pdu, err := bacnet.DecodePDU(raw[sealedHeaderLen:]); err == nil && pdu.Type == bacnet.WriteProperty {
		a.capturedWrite[room] = f.Payload
	}
}

// volley fires one attack round at every sibling: a forged legacy setpoint
// write, plus (at secure rooms) a verbatim replay of a captured head-end
// frame. Answers are harvested — and the connections closed — two rounds
// later, so the serial gateways are never starved.
func (a *lateralAttacker) volley() {
	self := a.b.Rooms[0]
	for _, room := range a.b.Rooms[1:] {
		a.seq++
		forged := bacnet.PDU{
			Type:     bacnet.WriteProperty,
			InvokeID: a.seq,
			Device:   room.DeviceID,
			Object:   bacnet.ObjSetpoint,
			Value:    attackSetpoint,
		}
		conn := a.b.Bus.Dial(self.Node, room.Node, bas.BACnetPort)
		_ = conn.Write(bacnet.AppendFrame(nil, forged.AppendEncode(nil)))
		a.pending = append(a.pending, pendingProbe{room: room.Index, conn: conn})

		if !room.Secure {
			continue
		}
		capture := a.capturedWrite[room.Index]
		if capture == nil {
			capture = a.capturedAny[room.Index]
		}
		if capture == nil {
			continue
		}
		rc := a.b.Bus.Dial(self.Node, room.Node, bas.BACnetPort)
		_ = rc.Write(capture)
		a.pending = append(a.pending, pendingProbe{room: room.Index, replay: true, conn: rc})
	}
	a.after(probeHarvestDelay, a.harvest)
}

// harvest reads each probe's answer and hangs up. A legacy Ack means the
// room obeyed; silence (the proxy's fail-silent drop) or a refused dial
// means the frame died at the bump-in-the-wire.
func (a *lateralAttacker) harvest() {
	for _, p := range a.pending {
		accepted := false
		if !p.conn.Refused() {
			var d bacnet.Deframer
			d.Feed(p.conn.ReadAll())
			for {
				raw := d.Next()
				if raw == nil {
					break
				}
				// Forged probes are legacy, so a legacy Ack is obedience. A
				// replayed frame answered at all means the proxy accepted it.
				if p.replay {
					accepted = true
					break
				}
				if pdu, err := bacnet.DecodePDU(raw); err == nil && pdu.Type == bacnet.Ack {
					accepted = true
					break
				}
			}
		}
		switch {
		case p.replay && accepted:
			a.replaysAccepted[p.room]++
		case p.replay:
			a.replaysDenied[p.room]++
		case accepted:
			a.forgedAccepted[p.room]++
		default:
			a.forgedDenied[p.room]++
		}
		p.conn.Close()
	}
	a.pending = nil
	a.after(a.interval-probeHarvestDelay, a.volley)
}

// ExecuteBuilding deploys a building, lets it settle under the head-end's
// demand-response schedule, runs the lateral-movement attack (when enabled),
// and judges every room with its own ground-truth safety monitor.
func ExecuteBuilding(spec BuildingSpec) (*BuildingReport, error) {
	spec = spec.withDefaults()
	base := bas.DefaultScenario()

	// The eco-setback write lands mid-settle: it gives every room one
	// legitimate head-end WriteProperty — the frame a bus sniffer captures
	// and later replays at the secure rooms.
	eco := base.Controller.Setpoint - 1
	schedAt := spec.Settle / 2

	b, err := building.New(building.Config{
		Rooms:     spec.Rooms,
		Mix:       spec.Mix,
		Secure:    spec.Secure,
		Scenario:  bas.ScenarioConfig{Seed: spec.Seed},
		Recovery:  spec.Recovery,
		Slice:     spec.Slice,
		Workers:   spec.Workers,
		Faults:    spec.Faults,
		BusFaults: spec.BusFaults,
		Standby:   spec.Standby,
		TenantAPI: spec.TenantAPI,
		Monitor:   spec.Monitor || spec.Demote,
		Demote:    spec.Demote,
		Profiler:  spec.Profiler,
		HeadEnd: building.HeadEndConfig{
			Schedule: []building.SetpointEvent{{At: schedAt, Value: eco}},
		},
	})
	if err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}
	defer b.Close()

	monCfg := safetyConfig(base, spec.Settle)
	monitors := make([]*safety.Monitor, len(b.Rooms))
	for i, room := range b.Rooms {
		monitors[i] = safety.Attach(room.Testbed.Machine.Clock(), room.Testbed.Room, monCfg)
	}

	var attacker *lateralAttacker
	if spec.Attack {
		attacker = newLateralAttacker(b)
		attacker.arm(spec.Settle)
	}

	b.Run(spec.Settle + spec.Window)

	brep := b.Report()
	rep := &BuildingReport{
		Spec:     spec,
		Alarm:    brep.Alarm,
		Flagged:  brep.Flagged,
		Building: brep,
	}
	if attacker != nil {
		rep.CapturedFrames = attacker.captureCount
		rep.Notes = attacker.notes
	}
	for i, room := range b.Rooms {
		violations := monitors[i].Violations()
		var roomFaults *faultinject.Report
		if room.Injector != nil {
			roomFaults = room.Injector.Report()
			violations = filterFailsafeAlarms(0, roomFaults, violations)
		}
		busFaults := brep.RoomReports[i].BusFaults
		// Both campaigns run on the building timeline (boards boot at virtual
		// zero), so a zero anchor places violations in either's windows.
		inFault := 0
		for _, v := range violations {
			if faultinject.InWindow(0, roomFaults, v.At) || faultinject.InWindow(0, busFaults, v.At) {
				inFault++
			}
		}
		alive := room.Dep.ControllerAlive()
		out := RoomOutcome{
			Room:            room.Index,
			Platform:        string(room.Platform),
			Secure:          room.Secure,
			ControllerAlive: alive,
			Violations:      len(violations),
			FramesRejected:  brep.RoomReports[i].FramesRejected,
			BMSFlagged:      brep.RoomReports[i].BMS.Flagged,
			Restarts:        room.Dep.ControllerRestarts(),
			Recovered:       room.Dep.ControllerRecovered(),
		}
		if attacker != nil {
			out.ForgedAccepted = attacker.forgedAccepted[i]
			out.ForgedDenied = attacker.forgedDenied[i]
			out.ReplaysAccepted = attacker.replaysAccepted[i]
			out.ReplaysDenied = attacker.replaysDenied[i]
		}
		if mon := brep.RoomReports[i].Monitor; mon != nil {
			out.PolicyDrifts = mon.PolicyDrifts
			out.OriginDrifts = mon.OriginDrifts
		}
		out.BusDrifts = brep.RoomReports[i].BusDrifts
		out.BusRefused = brep.RoomReports[i].BusRefused
		out.Demoted = brep.RoomReports[i].Demoted
		out.UnreachableRounds = brep.RoomReports[i].BMS.UnreachableRounds
		out.Quarantined = brep.RoomReports[i].BMS.Quarantined
		out.Failovers = brep.RoomReports[i].Failovers
		out.ViolationsDuringFault = inFault
		switch {
		case spec.Attack && i == 0:
			out.Verdict = "FOOTHOLD"
		case len(violations) > 0 || !alive:
			if alive && inFault == len(violations) {
				// Every violation sits inside an injected fault's effect
				// window and the controller is back: the room rode the fault
				// out rather than losing to it.
				out.Verdict = "RECOVERED"
			} else {
				out.Verdict = "COMPROMISED"
			}
		default:
			out.Verdict = "SECURE"
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}
	return rep, nil
}

// FormatBuildingMatrix renders the per-room verdict table for experiment
// logs: one row per room.
func FormatBuildingMatrix(rep *BuildingReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-15s %-8s %-12s %-9s %-13s %-13s %-8s %-7s\n",
		"room", "platform", "proto", "verdict", "violations", "forged(acc/den)", "replay(acc/den)", "rejects", "flagged")
	b.WriteString(strings.Repeat("-", 96))
	b.WriteByte('\n')
	for _, o := range rep.Outcomes {
		proto := "legacy"
		if o.Secure {
			proto = "secure"
		}
		fmt.Fprintf(&b, "%-5d %-15s %-8s %-12s %-10d %6d/%-8d %6d/%-8d %-8d %-7v\n",
			o.Room, o.Platform, proto, o.Verdict, o.Violations,
			o.ForgedAccepted, o.ForgedDenied, o.ReplaysAccepted, o.ReplaysDenied,
			o.FramesRejected, o.BMSFlagged)
	}
	fmt.Fprintf(&b, "building alarm: %v, flagged rooms: %v, captured frames: %d\n",
		rep.Alarm, rep.Flagged, rep.CapturedFrames)
	if rep.Building != nil && rep.Building.BusDrifts > 0 {
		fmt.Fprintf(&b, "policy monitor: %d uncertified bus dials, %d refused\n",
			rep.Building.BusDrifts, rep.Building.BusRefused)
	}
	if bld := rep.Building; bld != nil && (bld.BusFaults != nil || bld.Standby) {
		b.WriteString(formatResilience(rep))
	}
	return b.String()
}

// formatResilience renders the fault/MTTR section of the building matrix:
// the bus campaign's per-fault outcomes, the failover verdict, and the
// per-room resilience ledger.
func formatResilience(rep *BuildingReport) string {
	bld := rep.Building
	var b strings.Builder
	b.WriteByte('\n')
	if bf := bld.BusFaults; bf != nil {
		fmt.Fprintf(&b, "bus fault plan %q: %d injected, %d recovered, %d unrecovered\n",
			bld.BusFaultPlan, bf.Injected, bf.Recovered, bf.Unrecovered)
		for _, f := range bf.Faults {
			mttr := "-"
			if f.MTTRNs >= 0 {
				mttr = time.Duration(f.MTTRNs).String()
			}
			target := f.Target
			if target == "" {
				target = "bus"
			}
			fmt.Fprintf(&b, "  %-15s %-8s at=%-8s mttr=%s\n",
				f.Kind, target, time.Duration(f.AtNs), mttr)
		}
	}
	if bld.Standby {
		if bld.FailoverRound > 0 {
			fmt.Fprintf(&b, "head-end failover: standby took over at round %d\n", bld.FailoverRound)
		} else {
			b.WriteString("head-end failover: standby armed, primary never silent\n")
		}
	}
	fmt.Fprintf(&b, "%-5s %-15s %-9s %-10s %-12s %-10s %-13s %-10s\n",
		"room", "unreach_rounds", "failovers", "quarantined", "sup_lost", "sup_rest", "viol_in_fault", "room_mttr")
	for _, o := range rep.Outcomes {
		var rr *building.RoomReport
		if o.Room < len(bld.RoomReports) {
			rr = &bld.RoomReports[o.Room]
		}
		var lost, restored int64
		mttr := "-"
		if rr != nil {
			lost, restored = rr.SupervisionLost, rr.SupervisionRestored
			if rr.BusFaults != nil && rr.BusFaults.MTTRCount > 0 {
				mttr = time.Duration(rr.BusFaults.MTTRSumNs / rr.BusFaults.MTTRCount).String()
			}
		}
		fmt.Fprintf(&b, "%-5d %-15d %-9d %-12v %-12d %-10d %-13d %-10s\n",
			o.Room, o.UnreachableRounds, o.Failovers, o.Quarantined,
			lost, restored, o.ViolationsDuringFault, mttr)
	}
	return b.String()
}
