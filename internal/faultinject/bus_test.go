package faultinject

import (
	"testing"
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/vnet"
)

// busNodes resolves the node names a 4-room building would expose: rooms
// 0..3 on nodes 0..3, the primary head-end on 4, the standby on 5.
func busNodes(name string) (int, bool) {
	m := map[string]int{
		"room00": 0, "room01": 1, "room02": 2, "room03": 3,
		"bms": 4, "bms-standby": 5,
	}
	id, ok := m[name]
	return id, ok
}

func at(d time.Duration) machine.Time { return machine.Time(0).Add(d) }

func TestNewBusInjectorRejectsBoardKindsAndUnknownNodes(t *testing.T) {
	board := &Plan{Name: "p", Faults: []Fault{
		{At: time.Minute, Kind: KindDriverCrash, Target: "tempSensProc"},
	}}
	if _, err := NewBusInjector(board, 4, busNodes, time.Second); err == nil {
		t.Fatal("board-level kind accepted by the bus injector")
	}
	unknown := &Plan{Name: "p", Faults: []Fault{
		{At: time.Minute, Kind: KindBusPartition, Target: "room99", Duration: time.Minute},
	}}
	if _, err := NewBusInjector(unknown, 4, busNodes, time.Second); err == nil {
		t.Fatal("unknown bus node accepted")
	}
	if _, err := NewBusInjector(&Plan{Name: "p"}, 4, busNodes, 0); err == nil {
		t.Fatal("zero slice accepted")
	}
}

func TestArmRejectsBusKinds(t *testing.T) {
	plan := &Plan{Name: "p", Faults: []Fault{
		{At: time.Minute, Kind: KindBusPartition, Target: "room01", Duration: time.Minute},
	}}
	if _, err := Arm(nil, plan); err == nil {
		t.Fatal("bus-level kind accepted by the board-level Arm")
	}
}

func TestBusInjectorPartitionWindowAndTargeting(t *testing.T) {
	plan := &Plan{Name: "p", Faults: []Fault{
		{At: 10 * time.Minute, Kind: KindBusPartition, Target: "room01", Duration: 5 * time.Minute},
	}}
	bi, err := NewBusInjector(plan, 4, busNodes, time.Second)
	if err != nil {
		t.Fatal(err)
	}

	if fired := bi.BeginRound(at(9 * time.Minute)); len(fired) != 0 {
		t.Fatalf("fired before At: %v", fired)
	}
	if v := bi.Verdict(4, 1, 0, 0); v != (vnet.BusFault{}) {
		t.Fatalf("verdict before injection = %+v, want zero", v)
	}
	fired := bi.BeginRound(at(10 * time.Minute))
	if len(fired) != 1 || fired[0].Kind != KindBusPartition {
		t.Fatalf("fired at At = %v, want the partition", fired)
	}
	if fired := bi.BeginRound(at(10*time.Minute + time.Second)); len(fired) != 0 {
		t.Fatalf("partition fired twice: %v", fired)
	}

	// Inside the window: both directions touching room 1 hold; other links
	// are untouched.
	if v := bi.Verdict(4, 1, 0, 0); !v.Hold || v.Drop || v.Dup {
		t.Fatalf("head→room1 verdict = %+v, want Hold", v)
	}
	if v := bi.Verdict(1, 4, 0, 3); !v.Hold {
		t.Fatalf("room1→head verdict = %+v, want Hold", v)
	}
	if v := bi.Verdict(4, 2, 0, 0); v != (vnet.BusFault{}) {
		t.Fatalf("head→room2 verdict = %+v, want zero", v)
	}

	// The window closes at At+Duration exactly.
	bi.BeginRound(at(15 * time.Minute))
	if v := bi.Verdict(4, 1, 0, 0); v != (vnet.BusFault{}) {
		t.Fatalf("verdict at window end = %+v, want zero", v)
	}
}

func TestBusInjectorDelayHoldsByAge(t *testing.T) {
	plan := &Plan{Name: "p", Faults: []Fault{
		{At: time.Minute, Kind: KindBusDelay, Target: "room01", Duration: time.Minute, Delay: 3 * time.Second},
	}}
	bi, err := NewBusInjector(plan, 4, busNodes, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bi.BeginRound(at(time.Minute))
	// Delay 3s on a 1s slice: ceil(2*3s / 1s) = 6 barriers of hold.
	for age := 0; age < 6; age++ {
		if v := bi.Verdict(4, 1, 0, age); !v.Hold {
			t.Fatalf("age %d verdict = %+v, want Hold", age, v)
		}
	}
	if v := bi.Verdict(4, 1, 0, 6); v.Hold {
		t.Fatal("frame still held after aging past the delay")
	}
}

func TestBusInjectorDropAndDupVerdicts(t *testing.T) {
	plan := &Plan{Name: "p", Faults: []Fault{
		{At: time.Minute, Kind: KindBusDrop, Target: "room01", Duration: time.Minute},
		{At: time.Minute, Kind: KindBusDup, Target: "room02", Duration: time.Minute},
	}}
	bi, err := NewBusInjector(plan, 4, busNodes, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bi.BeginRound(at(time.Minute))
	if v := bi.Verdict(4, 1, 0, 0); !v.Drop || v.Hold {
		t.Fatalf("drop verdict = %+v", v)
	}
	if v := bi.Verdict(4, 2, 0, 0); !v.Dup || v.Hold || v.Drop {
		t.Fatalf("dup verdict = %+v", v)
	}
}

func TestBusInjectorRoomRecoveryClosesMTTR(t *testing.T) {
	plan := &Plan{Name: "p", Faults: []Fault{
		{At: 10 * time.Minute, Kind: KindBusPartition, Target: "room01", Duration: 5 * time.Minute},
	}}
	bi, err := NewBusInjector(plan, 4, busNodes, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bi.BeginRound(at(10 * time.Minute))

	// A confirmation during the outage must not count as recovery, and a
	// confirmation from an unaffected room must not close room 1's fault.
	bi.NoteRoomOK(1, at(12*time.Minute))
	bi.NoteRoomOK(0, at(16*time.Minute))
	if rep := bi.Report(); rep.Recovered != 0 {
		t.Fatalf("recovered early: %+v", rep)
	}

	bi.NoteRoomOK(1, at(16*time.Minute))
	rep := bi.Report()
	if rep.Injected != 1 || rep.Recovered != 1 || rep.Unrecovered != 0 {
		t.Fatalf("report tallies = %+v", rep)
	}
	wantMTTR := int64(6 * time.Minute) // recovered 16m − injected 10m
	if rep.Faults[0].MTTRNs != wantMTTR {
		t.Fatalf("MTTR = %s, want %s", time.Duration(rep.Faults[0].MTTRNs), 6*time.Minute)
	}

	// The room-scoped view attributes the same fault to room 1 only.
	if rr := bi.RoomReport(0); rr != nil {
		t.Fatalf("room 0 report = %+v, want nil (fault never touched it)", rr)
	}
	rr := bi.RoomReport(1)
	if rr == nil || rr.Recovered != 1 || rr.Faults[0].MTTRNs != wantMTTR {
		t.Fatalf("room 1 report = %+v", rr)
	}
}

func TestBusInjectorHeadEndCrashRecoversOnlyByFailover(t *testing.T) {
	plan := &Plan{Name: "p", Faults: []Fault{
		{At: 10 * time.Minute, Kind: KindHeadEndCrash},
	}}
	bi, err := NewBusInjector(plan, 2, busNodes, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if bi.HeadEndDown() {
		t.Fatal("head down before the crash fired")
	}
	bi.BeginRound(at(10 * time.Minute))
	if !bi.HeadEndDown() {
		t.Fatal("head not down after the crash fired")
	}

	// The crash window is open-ended: polls can never close it.
	bi.NoteRoomOK(0, at(20*time.Minute))
	bi.NoteRoomOK(1, at(20*time.Minute))
	if rep := bi.Report(); rep.Recovered != 0 {
		t.Fatalf("poll confirmations closed a head-end crash: %+v", rep)
	}

	bi.NoteFailover(at(11 * time.Minute))
	if got, ok := bi.FailoverAt(); !ok || got != at(11*time.Minute) {
		t.Fatalf("FailoverAt = %v, %v", got, ok)
	}
	rep := bi.Report()
	if rep.Recovered != 1 || rep.Faults[0].MTTRNs != int64(time.Minute) {
		t.Fatalf("post-failover report = %+v", rep)
	}
	// Every room inherits the failover instant as its recovery point, so
	// attack verdicts can excuse violations during the interregnum.
	for room := 0; room < 2; room++ {
		rr := bi.RoomReport(room)
		if rr == nil || rr.Faults[0].RecoveredAtNs != int64(11*time.Minute) {
			t.Fatalf("room %d report = %+v", room, rr)
		}
		if !InWindow(0, rr, at(10*time.Minute+30*time.Second)) {
			t.Fatalf("room %d: interregnum instant not in fault window", room)
		}
		if InWindow(0, rr, at(12*time.Minute)) {
			t.Fatalf("room %d: post-failover instant still in fault window", room)
		}
	}
}
