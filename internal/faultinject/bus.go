package faultinject

import (
	"fmt"
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/vnet"
)

// The building-scale half of the campaign layer: bus faults (partition,
// drop, delay, duplication) and the primary head-end crash. Board faults are
// armed on a board clock (inject.go); bus faults are armed on the building's
// coordinator and consulted at every bus flush barrier, which is what keeps
// a faulted 64-room run byte-identical at any worker count — the verdicts
// depend only on virtual time and frame age, never on goroutine scheduling.

// busFault is one armed bus-level fault.
type busFault struct {
	fault Fault
	from  machine.Time // effect window start (absolute)
	to    machine.Time // effect window end; headend-crash is open-ended
	node  int          // resolved target node; -1 = whole bus
	// holdBarriers is the bus-delay hold count: how many flush barriers a
	// frame must age before release (two barriers per lockstep round).
	holdBarriers int

	injected bool
	// pending tracks rooms whose supervisory path has not yet been
	// reconfirmed after the window closed; recovery completes when empty.
	pending map[int]bool
	// roomRecovered records, per room, when its path was reconfirmed.
	roomRecovered map[int]machine.Time
	recovered     bool
	recoveredAt   machine.Time
}

// affects reports whether a (from, to) link touches the fault's target.
func (f *busFault) affects(from, to int) bool {
	return f.node < 0 || from == f.node || to == f.node
}

// BusInjector is an armed bus-fault plan on one building.
type BusInjector struct {
	plan   *Plan
	rooms  int
	faults []*busFault
	now    machine.Time

	headDown     bool
	failoverAt   machine.Time
	failoverDone bool
}

// NewBusInjector validates and arms a bus-level plan. Every fault in the
// plan must be a bus kind (BusKind); rooms is the number of room nodes
// (rooms are bus nodes 0..rooms-1, so higher node ids — the head-ends — are
// infrastructure). resolve maps a fault's Target node name to its id.
// Offsets are from building boot (the building clock starts at zero).
func NewBusInjector(plan *Plan, rooms int, resolve func(name string) (int, bool), slice time.Duration) (*BusInjector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if slice <= 0 {
		return nil, fmt.Errorf("faultinject: bus injector needs a positive slice")
	}
	bi := &BusInjector{plan: plan, rooms: rooms}
	for i, f := range plan.Faults {
		if !BusKind(f.Kind) {
			return nil, fmt.Errorf("faultinject: fault %d: %s is a board-level fault; arm it with Arm on the room's board", i, f.Kind)
		}
		bf := &busFault{
			fault:         f,
			from:          machine.Time(0).Add(f.At),
			node:          -1,
			pending:       make(map[int]bool),
			roomRecovered: make(map[int]machine.Time),
		}
		bf.to = bf.from.Add(f.Duration)
		if f.Kind == KindHeadEndCrash {
			bf.to = machine.Time(1<<63 - 1)
		} else if f.Target != "" {
			node, ok := resolve(f.Target)
			if !ok {
				return nil, fmt.Errorf("faultinject: fault %d: unknown bus node %q", i, f.Target)
			}
			bf.node = node
		}
		if f.Kind == KindBusDelay {
			// Two flush barriers per lockstep round: a frame held for
			// holdBarriers barriers is delayed ~Delay of virtual time.
			bf.holdBarriers = int((2*f.Delay + slice - 1) / slice)
			if bf.holdBarriers < 1 {
				bf.holdBarriers = 1
			}
		}
		// Recovery demands reconfirmation of every affected room's
		// supervisory path; a whole-bus or infrastructure-node fault affects
		// every room.
		if bf.node >= 0 && bf.node < rooms {
			bf.pending[bf.node] = true
		} else {
			for r := 0; r < rooms; r++ {
				bf.pending[r] = true
			}
		}
		bi.faults = append(bi.faults, bf)
	}
	return bi, nil
}

// BeginRound advances the injector to the round deadline and returns the
// faults that fire this round (for event emission on the affected boards).
// Call once per lockstep round, before the bus flushes.
func (bi *BusInjector) BeginRound(now machine.Time) []Fault {
	bi.now = now
	var fired []Fault
	for _, bf := range bi.faults {
		if bf.injected || now < bf.from {
			continue
		}
		bf.injected = true
		fired = append(fired, bf.fault)
		if bf.fault.Kind == KindHeadEndCrash {
			bi.headDown = true
		}
	}
	return fired
}

// Verdict adjudicates one queued frame or deferred dial at the flush
// barrier; it is the bus's fault hook (vnet.Bus.SetFaultHook), whatever the
// port. The bus applies Hold over Drop, Drop over Dup.
func (bi *BusInjector) Verdict(from, to vnet.NodeID, _ vnet.Port, age int) vnet.BusFault {
	var v vnet.BusFault
	for _, bf := range bi.faults {
		if !bf.injected || bi.now >= bf.to || !bf.affects(int(from), int(to)) {
			continue
		}
		switch bf.fault.Kind {
		case KindBusPartition:
			v.Hold = true
		case KindBusDrop:
			v.Drop = true
		case KindBusDelay:
			if age < bf.holdBarriers {
				v.Hold = true
			}
		case KindBusDup:
			v.Dup = true
		}
	}
	return v
}

// HeadEndDown reports whether a headend-crash fault has fired; the building
// stops running the primary BMS from that round on.
func (bi *BusInjector) HeadEndDown() bool { return bi.headDown }

// NoteRoomOK records a successful supervisory exchange with a room (a
// head-end harvest that produced a verified answer). The first confirmation
// at or after a fault's window closes that room's share of its recovery;
// the fault's MTTR closes when every affected room has reconfirmed.
func (bi *BusInjector) NoteRoomOK(room int, now machine.Time) {
	for _, bf := range bi.faults {
		if !bf.injected || bf.recovered || now < bf.to {
			continue
		}
		if bf.fault.Kind == KindHeadEndCrash {
			continue // recovery is the standby takeover, not a poll
		}
		if !bf.pending[room] {
			continue
		}
		delete(bf.pending, room)
		bf.roomRecovered[room] = now
		if len(bf.pending) == 0 {
			bf.recovered = true
			bf.recoveredAt = now
		}
	}
}

// NoteFailover records the standby head-end taking over: it closes the
// headend-crash fault's recovery (MTTR = silence detection + takeover).
func (bi *BusInjector) NoteFailover(now machine.Time) {
	bi.failoverAt = now
	bi.failoverDone = true
	for _, bf := range bi.faults {
		if bf.fault.Kind != KindHeadEndCrash || !bf.injected || bf.recovered {
			continue
		}
		bf.recovered = true
		bf.recoveredAt = now
		for r := range bf.pending {
			delete(bf.pending, r)
			bf.roomRecovered[r] = now
		}
	}
}

// Report summarises the bus campaign with the same shape board campaigns
// use, so lab aggregation and CLI tables need no new schema.
func (bi *BusInjector) Report() *Report {
	var faults []FaultOutcome
	for _, bf := range bi.faults {
		faults = append(faults, bf.outcome(bf.recoveredAt, bf.recovered))
	}
	return newReport(bi.plan.Name, faults)
}

// RoomReport renders the campaign as seen by one room: only the faults
// whose target set includes the room, each closed at that room's own
// reconfirmation instant. Attack verdicts use it with InWindow to excuse
// violations that fall inside the room's own outage. nil when no armed
// fault touches the room.
func (bi *BusInjector) RoomReport(room int) *Report {
	var faults []FaultOutcome
	for _, bf := range bi.faults {
		at, recovered := bf.roomRecovered[room]
		if recovered || bf.pending[room] {
			faults = append(faults, bf.outcome(at, recovered))
		}
	}
	if len(faults) == 0 {
		return nil
	}
	return newReport(bi.plan.Name, faults)
}

// outcome renders bf's outcome, recovered at at when recovered is true.
func (bf *busFault) outcome(at machine.Time, recovered bool) FaultOutcome {
	o := FaultOutcome{
		Kind: bf.fault.Kind, Target: bf.fault.Target,
		AtNs: int64(bf.fault.At), Injected: bf.injected,
		RecoveredAtNs: -1, MTTRNs: -1,
	}
	if recovered {
		o.RecoveredAtNs = int64(at.Sub(machine.Time(0)))
		o.MTTRNs = o.RecoveredAtNs - o.AtNs
	}
	return o
}

// FailoverAt reports when the standby took over (zero Time and false when
// no failover happened).
func (bi *BusInjector) FailoverAt() (machine.Time, bool) {
	return bi.failoverAt, bi.failoverDone
}

// Plan returns the armed plan.
func (bi *BusInjector) Plan() *Plan { return bi.plan }
