// Package faultinject is the deterministic fault-injection campaign layer.
// A Plan is a list of faults pinned to virtual-time offsets; Arm schedules
// them on a board's clock and injects them through narrow hooks exposed by
// the simulated kernels and the plant. The package touches neither wall
// clock nor randomness, so the same plan against the same scenario produces
// byte-identical results regardless of how many lab workers are in flight.
//
// The supported fault kinds cover the failure modes the paper's resilience
// argument cares about: driver death (crash), driver unresponsiveness
// (hang), sensor corruption (stuck-at, drift), transport faults (IPC drop
// and delay), physical actuator death (heater failure), and load (web
// request flood).
package faultinject

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"time"
)

// Kind identifies a fault class.
type Kind string

// Fault kinds.
const (
	// KindDriverCrash kills the target process outright; recovery services
	// (MINIX RS, the seL4 monitor, the Linux supervisor) may reincarnate it.
	KindDriverCrash Kind = "driver-crash"
	// KindDriverHang black-holes all IPC to and from the target for
	// Duration: the process stays alive but stops responding.
	KindDriverHang Kind = "driver-hang"
	// KindSensorStuck freezes the temperature sensor at Value °C for
	// Duration (0 = permanently).
	KindSensorStuck Kind = "sensor-stuck"
	// KindSensorDrift biases the sensor by Value °C/s, accumulating over
	// Duration (0 = permanently).
	KindSensorDrift Kind = "sensor-drift"
	// KindIPCDrop silently drops messages from Src to Target for Duration.
	KindIPCDrop Kind = "ipc-drop"
	// KindIPCDelay delays messages from Src to Target by Delay for Duration.
	KindIPCDelay Kind = "ipc-delay"
	// KindHeaterFail makes the physical heater accept commands but produce
	// no heat for Duration (0 = permanently).
	KindHeaterFail Kind = "heater-fail"
	// KindWebFlood opens Count connections to the web interface at once,
	// each carrying one request, without ever reading the responses.
	KindWebFlood Kind = "web-flood"

	// Bus fault kinds act on the building's shared field network rather
	// than one board, and are applied by the BusInjector at the bus flush
	// barrier. Target names a bus node ("room02", "bms"); empty targets the
	// whole bus.

	// KindBusPartition holds every frame and dial touching the target node
	// for Duration — the link exists but carries nothing until it heals,
	// when held frames deliver in order.
	KindBusPartition Kind = "bus-partition"
	// KindBusDrop silently discards every frame touching the target node
	// for Duration (dials are refused, like a cut cable with RSTs).
	KindBusDrop Kind = "bus-drop"
	// KindBusDelay holds frames touching the target node for Delay of
	// virtual time before delivering them, for Duration.
	KindBusDelay Kind = "bus-delay"
	// KindBusDup delivers every frame touching the target node twice — a
	// chattering repeater — for Duration.
	KindBusDup Kind = "bus-dup"
	// KindHeadEndCrash kills the primary head-end BMS at At: it stops
	// polling permanently. Recovery is the standby's takeover.
	KindHeadEndCrash Kind = "headend-crash"
)

// knownKinds lists every kind for validation, sorted.
var knownKinds = []Kind{
	KindBusDelay, KindBusDrop, KindBusDup, KindBusPartition,
	KindDriverCrash, KindDriverHang, KindHeadEndCrash, KindHeaterFail,
	KindIPCDelay, KindIPCDrop, KindSensorDrift, KindSensorStuck, KindWebFlood,
}

// BusKind reports whether k is a bus-level fault (armed through the
// BusInjector at the building's flush barrier, not on one board).
func BusKind(k Kind) bool {
	switch k {
	case KindBusPartition, KindBusDrop, KindBusDelay, KindBusDup, KindHeadEndCrash:
		return true
	}
	return false
}

// Fault is one scheduled fault. At is a virtual-time offset from the instant
// the plan is armed (deployments arm at boot, so offsets are from boot).
type Fault struct {
	At       time.Duration `json:"at"`
	Kind     Kind          `json:"kind"`
	Target   string        `json:"target,omitempty"`
	Src      string        `json:"src,omitempty"`
	Duration time.Duration `json:"duration,omitempty"`
	Value    float64       `json:"value,omitempty"`
	Delay    time.Duration `json:"delay,omitempty"`
	Count    int           `json:"count,omitempty"`
}

// String renders "driver-crash tempSensProc @40m0s".
func (f Fault) String() string {
	s := string(f.Kind)
	if f.Target != "" {
		s += " " + f.Target
	}
	return fmt.Sprintf("%s @%s", s, f.At)
}

// Plan is a named fault schedule.
type Plan struct {
	Name   string  `json:"name"`
	Faults []Fault `json:"faults"`
}

// Validate checks every fault and normalises the plan: faults are stably
// sorted by (At, original index) so arming order — and therefore timer
// scheduling order at equal instants — is deterministic.
func (p *Plan) Validate() error {
	for i, f := range p.Faults {
		if f.At < 0 {
			return fmt.Errorf("faultinject: fault %d: negative offset %s", i, f.At)
		}
		known := false
		for _, k := range knownKinds {
			if f.Kind == k {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("faultinject: fault %d: unknown kind %q (known: %v)", i, f.Kind, knownKinds)
		}
		switch f.Kind {
		case KindDriverCrash, KindDriverHang:
			if f.Target == "" {
				return fmt.Errorf("faultinject: fault %d: %s needs a target process", i, f.Kind)
			}
			if f.Kind == KindDriverHang && f.Duration <= 0 {
				return fmt.Errorf("faultinject: fault %d: driver-hang needs a positive duration", i)
			}
		case KindIPCDrop, KindIPCDelay:
			if f.Target == "" {
				return fmt.Errorf("faultinject: fault %d: %s needs a target (destination) process", i, f.Kind)
			}
			if f.Duration <= 0 {
				return fmt.Errorf("faultinject: fault %d: %s needs a positive duration", i, f.Kind)
			}
			if f.Kind == KindIPCDelay && f.Delay <= 0 {
				return fmt.Errorf("faultinject: fault %d: ipc-delay needs a positive delay", i)
			}
		case KindSensorDrift:
			if f.Value == 0 {
				return fmt.Errorf("faultinject: fault %d: sensor-drift needs a nonzero value (°C/s)", i)
			}
		case KindWebFlood:
			if f.Count <= 0 {
				return fmt.Errorf("faultinject: fault %d: web-flood needs a positive count", i)
			}
		case KindBusPartition, KindBusDrop, KindBusDup:
			if f.Duration <= 0 {
				return fmt.Errorf("faultinject: fault %d: %s needs a positive duration", i, f.Kind)
			}
		case KindBusDelay:
			if f.Duration <= 0 {
				return fmt.Errorf("faultinject: fault %d: bus-delay needs a positive duration", i)
			}
			if f.Delay <= 0 {
				return fmt.Errorf("faultinject: fault %d: bus-delay needs a positive delay", i)
			}
		}
	}
	sort.SliceStable(p.Faults, func(i, j int) bool { return p.Faults[i].At < p.Faults[j].At })
	return nil
}

// ParsePlan decodes a JSON plan and validates it.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("faultinject: bad plan JSON: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// JSON renders the plan as indented JSON with a trailing newline.
func (p *Plan) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Builtin plans. Offsets leave the scenario's 30-minute settling phase
// undisturbed so safety verdicts isolate the fault response, not the warmup.
var builtins = map[string]*Plan{
	"none": {Name: "none"},
	"crash-sensor": {Name: "crash-sensor", Faults: []Fault{
		{At: 40 * time.Minute, Kind: KindDriverCrash, Target: "tempSensProc"},
	}},
	"crash-sensor-repeat": {Name: "crash-sensor-repeat", Faults: []Fault{
		{At: 40 * time.Minute, Kind: KindDriverCrash, Target: "tempSensProc"},
		{At: 70 * time.Minute, Kind: KindDriverCrash, Target: "tempSensProc"},
		{At: 100 * time.Minute, Kind: KindDriverCrash, Target: "tempSensProc"},
	}},
	"hang-sensor": {Name: "hang-sensor", Faults: []Fault{
		{At: 40 * time.Minute, Kind: KindDriverHang, Target: "tempSensProc", Duration: 2 * time.Minute},
	}},
	"stuck-sensor": {Name: "stuck-sensor", Faults: []Fault{
		{At: 40 * time.Minute, Kind: KindSensorStuck, Value: 22, Duration: 20 * time.Minute},
	}},
	"drift-sensor": {Name: "drift-sensor", Faults: []Fault{
		{At: 40 * time.Minute, Kind: KindSensorDrift, Value: 0.01, Duration: 10 * time.Minute},
	}},
	"heater-fail": {Name: "heater-fail", Faults: []Fault{
		{At: 40 * time.Minute, Kind: KindHeaterFail, Duration: 30 * time.Minute},
	}},
	"drop-sensor-ipc": {Name: "drop-sensor-ipc", Faults: []Fault{
		{At: 40 * time.Minute, Kind: KindIPCDrop, Src: "tempSensProc", Target: "tempProc", Duration: 90 * time.Second},
	}},
	"delay-sensor-ipc": {Name: "delay-sensor-ipc", Faults: []Fault{
		{At: 40 * time.Minute, Kind: KindIPCDelay, Src: "tempSensProc", Target: "tempProc", Duration: 2 * time.Minute, Delay: 250 * time.Millisecond},
	}},
	"web-flood": {Name: "web-flood", Faults: []Fault{
		{At: 40 * time.Minute, Kind: KindWebFlood, Count: 32},
	}},
	"bus-partition": {Name: "bus-partition", Faults: []Fault{
		{At: 40 * time.Minute, Kind: KindBusPartition, Target: "room01", Duration: 10 * time.Minute},
	}},
	"bus-drop": {Name: "bus-drop", Faults: []Fault{
		{At: 40 * time.Minute, Kind: KindBusDrop, Target: "room01", Duration: 5 * time.Minute},
	}},
	"bus-delay": {Name: "bus-delay", Faults: []Fault{
		{At: 40 * time.Minute, Kind: KindBusDelay, Target: "room01", Duration: 5 * time.Minute, Delay: 3 * time.Second},
	}},
	"bus-dup": {Name: "bus-dup", Faults: []Fault{
		{At: 40 * time.Minute, Kind: KindBusDup, Target: "room01", Duration: 5 * time.Minute},
	}},
	"headend-kill": {Name: "headend-kill", Faults: []Fault{
		{At: 40 * time.Minute, Kind: KindHeadEndCrash},
	}},
	// partition-failover is the E15 plan: one room rides out a bus partition
	// in degraded mode, then the primary head-end dies and the standby takes
	// over. Offsets keep the two faults disjoint so MTTR attributes cleanly.
	"partition-failover": {Name: "partition-failover", Faults: []Fault{
		{At: 40 * time.Minute, Kind: KindBusPartition, Target: "room01", Duration: 10 * time.Minute},
		{At: 65 * time.Minute, Kind: KindHeadEndCrash},
	}},
}

// Register adds (or replaces) a named plan in the registry, so
// operator-supplied plan files participate in sweeps exactly like builtins.
// Call it during setup, before any sweep validation or run: the registry is
// not synchronised.
func Register(p *Plan) error {
	if p.Name == "" {
		return fmt.Errorf("faultinject: plan has no name")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	builtins[p.Name] = p
	return nil
}

// Lookup resolves a builtin plan by name. The returned plan is a deep copy:
// arming mutates nothing shared.
func Lookup(name string) (*Plan, error) {
	p, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("faultinject: unknown plan %q (known: %v)", name, Names())
	}
	cp := &Plan{Name: p.Name, Faults: append([]Fault(nil), p.Faults...)}
	return cp, nil
}

// Names lists the builtin plan names, sorted.
func Names() []string {
	out := make([]string, 0, len(builtins))
	for n := range builtins {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// BoardNames lists the builtin plans a board can arm, sorted: every plan
// that holds no bus-level fault, which Arm refuses.
func BoardNames() []string {
	names := Names()
	out := names[:0]
	for _, n := range names {
		if !slices.ContainsFunc(builtins[n].Faults, func(f Fault) bool { return BusKind(f.Kind) }) {
			out = append(out, n)
		}
	}
	return out
}
