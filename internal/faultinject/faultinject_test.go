package faultinject

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/obs"
	"mkbas/internal/plant"
)

// nopKernel satisfies machine.TrapHandler for a board with no processes;
// the injector only needs the clock, bus, and obs sinks.
type nopKernel struct{}

func (nopKernel) HandleTrap(machine.PID, *machine.Frame) machine.Disposition {
	return machine.DispositionContinue
}
func (nopKernel) OnProcExit(machine.PID, machine.ExitInfo) {}

// fakeBoard records injector calls against a real virtual clock and room.
type fakeBoard struct {
	m        *machine.Machine
	room     *plant.Room
	crashed  []string
	crashErr error
	filter   func(src, dst string) (bool, time.Duration)
	floods   []int
}

func newFakeBoard(t *testing.T) *fakeBoard {
	t.Helper()
	m := machine.New(machine.Config{})
	m.Engine().SetHandler(nopKernel{})
	t.Cleanup(m.Shutdown)
	room := plant.Attach(m.Bus(), plant.NewRoom(m.Clock(), plant.DefaultConfig()))
	return &fakeBoard{m: m, room: room}
}

func (b *fakeBoard) Clock() *machine.Clock  { return b.m.Clock() }
func (b *fakeBoard) Room() *plant.Room      { return b.room }
func (b *fakeBoard) Events() *obs.EventLog  { return b.m.Obs().Events() }
func (b *fakeBoard) Metrics() *obs.Registry { return b.m.Obs().Metrics() }
func (b *fakeBoard) CrashProcess(name string) error {
	b.crashed = append(b.crashed, name)
	return b.crashErr
}
func (b *fakeBoard) SetIPCFault(fn func(src, dst string) (bool, time.Duration)) { b.filter = fn }
func (b *fakeBoard) Flood(count int) error {
	b.floods = append(b.floods, count)
	return nil
}

// readSensor drives one device-level sensor read, which is the injector's
// recovery probe.
func (b *fakeBoard) readSensor(t *testing.T) {
	t.Helper()
	if _, err := b.m.Bus().Read(plant.DevTempSensor, plant.RegTempMilliC); err != nil {
		t.Fatalf("sensor read: %v", err)
	}
}

func TestPlanValidateSortsAndRejects(t *testing.T) {
	p := &Plan{Name: "x", Faults: []Fault{
		{At: 2 * time.Second, Kind: KindWebFlood, Count: 1},
		{At: time.Second, Kind: KindDriverCrash, Target: "a"},
	}}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Faults[0].Kind != KindDriverCrash {
		t.Errorf("faults not sorted by offset: %+v", p.Faults)
	}

	for name, bad := range map[string]*Plan{
		"negative offset":  {Faults: []Fault{{At: -time.Second, Kind: KindDriverCrash, Target: "a"}}},
		"unknown kind":     {Faults: []Fault{{Kind: "meteor-strike"}}},
		"crash no target":  {Faults: []Fault{{Kind: KindDriverCrash}}},
		"hang no duration": {Faults: []Fault{{Kind: KindDriverHang, Target: "a"}}},
		"drop no duration": {Faults: []Fault{{Kind: KindIPCDrop, Target: "a"}}},
		"delay no delay":   {Faults: []Fault{{Kind: KindIPCDelay, Target: "a", Duration: time.Second}}},
		"drift zero rate":  {Faults: []Fault{{Kind: KindSensorDrift}}},
		"flood zero count": {Faults: []Fault{{Kind: KindWebFlood}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, bad)
		}
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p, err := Lookup("crash-sensor-repeat")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	data, err := p.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	back, err := ParsePlan(data)
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	data2, err := back.JSON()
	if err != nil {
		t.Fatalf("JSON round 2: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Errorf("JSON round trip not stable:\n%s\nvs\n%s", data, data2)
	}
}

func TestLookupAndRegister(t *testing.T) {
	if _, err := Lookup("definitely-not-a-plan"); err == nil {
		t.Error("Lookup accepted an unknown plan")
	}
	// Lookup returns a copy: mutating it must not corrupt the registry.
	p1, err := Lookup("crash-sensor")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	p1.Faults[0].Target = "mutated"
	p2, _ := Lookup("crash-sensor")
	if p2.Faults[0].Target == "mutated" {
		t.Error("Lookup shares fault storage with the registry")
	}

	if err := Register(&Plan{}); err == nil {
		t.Error("Register accepted an unnamed plan")
	}
	custom := &Plan{Name: "test-custom-plan", Faults: []Fault{
		{At: time.Minute, Kind: KindHeaterFail, Duration: time.Minute},
	}}
	if err := Register(custom); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := Lookup("test-custom-plan"); err != nil {
		t.Errorf("registered plan not found: %v", err)
	}
}

// TestArmInjectsOnSchedule drives a mixed plan on a fake board and pins the
// injector's behavior: crash and flood calls, the transport-fault window, the
// plant fault, MTTR bookkeeping, and the emitted observability.
func TestArmInjectsOnSchedule(t *testing.T) {
	b := newFakeBoard(t)
	plan := &Plan{Name: "mixed", Faults: []Fault{
		{At: 1 * time.Second, Kind: KindDriverCrash, Target: "x"},
		{At: 2 * time.Second, Kind: KindSensorStuck, Value: 22, Duration: 2 * time.Second},
		{At: 3 * time.Second, Kind: KindWebFlood, Count: 5},
		{At: 1 * time.Second, Kind: KindIPCDrop, Src: "a", Target: "x", Duration: time.Second},
	}}
	inj, err := Arm(b, plan)
	if err != nil {
		t.Fatalf("Arm: %v", err)
	}
	if b.filter == nil {
		t.Fatal("transport fault present but no IPC filter installed")
	}
	if got := inj.Windows(); got != 1 {
		t.Fatalf("Windows = %d, want 1", got)
	}

	// Sample the filter inside and outside the drop window.
	var inWindow, wrongPair bool
	b.m.Clock().After(1500*time.Millisecond, func() {
		inWindow, _ = b.filter("a", "x")
		wrongPair, _ = b.filter("a", "y")
	})
	var afterWindow bool
	b.m.Clock().After(2500*time.Millisecond, func() {
		afterWindow, _ = b.filter("a", "x")
	})
	// Recovery probes: a faulted read at 3s must not close recovery; the
	// clean read at 5s closes every fault whose effect window has passed.
	b.m.Clock().After(3*time.Second, func() { b.readSensor(t) })
	b.m.Clock().After(5*time.Second, func() { b.readSensor(t) })

	b.m.Run(10 * time.Second)

	if len(b.crashed) != 1 || b.crashed[0] != "x" {
		t.Errorf("crashed = %v, want [x]", b.crashed)
	}
	if len(b.floods) != 1 || b.floods[0] != 5 {
		t.Errorf("floods = %v, want [5]", b.floods)
	}
	if !inWindow {
		t.Error("drop window inactive at 1.5s")
	}
	if wrongPair {
		t.Error("drop window matched the wrong destination")
	}
	if afterWindow {
		t.Error("drop window still active at 2.5s")
	}

	rep := inj.Report()
	if rep.Injected != 4 || rep.Unrecovered != 0 {
		t.Errorf("Injected=%d Unrecovered=%d, want 4/0", rep.Injected, rep.Unrecovered)
	}
	// Recovery closed at the 5s clean read for every fault; the oldest fault
	// (1s) therefore carries the maximum MTTR of 4s.
	if want := int64(4 * time.Second); rep.MTTRMaxNs != want {
		t.Errorf("MTTRMaxNs = %d, want %d", rep.MTTRMaxNs, want)
	}
	events := b.m.Obs().Events().Events()
	n := 0
	for _, e := range events {
		if e.Kind == obs.EventFaultInjected && e.Mechanism == obs.MechFaultInject {
			n++
		}
	}
	if n != 4 {
		t.Errorf("fault-injected events = %d, want 4", n)
	}
}

// TestArmIsDeterministic runs the same plan on two fresh boards and compares
// report bytes.
func TestArmIsDeterministic(t *testing.T) {
	run := func() []byte {
		b := newFakeBoard(t)
		plan, err := Lookup("crash-sensor-repeat")
		if err != nil {
			t.Fatalf("Lookup: %v", err)
		}
		inj, err := Arm(b, plan)
		if err != nil {
			t.Fatalf("Arm: %v", err)
		}
		b.m.Clock().After(105*time.Minute, func() { b.readSensor(t) })
		b.m.Run(2 * time.Hour)
		out, err := json.Marshal(inj.Report())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return out
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Errorf("reports differ across identical runs:\n%s\nvs\n%s", a, b)
	}
}

// TestCrashFailureIsReported pins the failure path: a crash the board cannot
// perform is still counted as injected, and the error lands in the event log.
func TestCrashFailureIsReported(t *testing.T) {
	b := newFakeBoard(t)
	b.crashErr = errors.New("no such process")
	plan := &Plan{Name: "bad", Faults: []Fault{
		{At: time.Second, Kind: KindDriverCrash, Target: "ghost"},
	}}
	if _, err := Arm(b, plan); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	b.m.Run(2 * time.Second)
	found := false
	for _, e := range b.m.Obs().Events().Events() {
		if e.Kind == obs.EventFaultInjected && e.Detail == "crash failed: no such process" {
			found = true
		}
	}
	if !found {
		t.Error("crash failure not surfaced in the event log")
	}
}

func TestViolationsDuring(t *testing.T) {
	var t0 machine.Time
	rep := &Report{Faults: []FaultOutcome{
		{Injected: true, AtNs: int64(10 * time.Second), RecoveredAtNs: int64(20 * time.Second)},
		{Injected: true, AtNs: int64(30 * time.Second), RecoveredAtNs: -1},
		{Injected: false, AtNs: int64(1 * time.Second), RecoveredAtNs: -1},
	}}
	times := []machine.Time{
		t0.Add(5 * time.Second),  // before any fault
		t0.Add(15 * time.Second), // inside the recovered fault's window
		t0.Add(25 * time.Second), // between windows
		t0.Add(35 * time.Second), // inside the unrecovered (open) window
	}
	if got := ViolationsDuring(t0, rep, times); got != 2 {
		t.Errorf("ViolationsDuring = %d, want 2", got)
	}
	if got := ViolationsDuring(t0, nil, times); got != 0 {
		t.Errorf("nil report: %d, want 0", got)
	}
}

// FuzzParsePlan feeds operator plan files to ParsePlan. Whatever the bytes,
// it must not panic; a plan it accepts has its faults in arming order with
// no negative offset, and re-encodes through Plan.JSON to a plan that parses
// back deep-equal. The seeds under testdata/fuzz/FuzzParsePlan are the
// builtin plans' JSON.
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return
		}
		for i, fault := range p.Faults {
			if fault.At < 0 || (i > 0 && fault.At < p.Faults[i-1].At) {
				t.Fatalf("accepted plan has fault %d at %s after %v", i, fault.At, p.Faults)
			}
		}
		enc, err := p.JSON()
		if err != nil {
			t.Fatalf("accepted plan %+v does not encode: %v", p, err)
		}
		again, err := ParsePlan(enc)
		if err != nil {
			t.Fatalf("re-encoded plan %s rejected: %v", enc, err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("plan %+v re-parses as %+v", p, again)
		}
	})
}
