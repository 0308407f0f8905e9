package faultinject

import (
	"fmt"
	"strings"
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/obs"
	"mkbas/internal/plant"
)

// Board is the narrow injection surface a deployment exposes to the
// campaign layer. The kernels never import this package; each platform
// binding adapts its kernel's hooks to this interface.
type Board interface {
	// Clock is the board's virtual clock — the only time source used.
	Clock() *machine.Clock
	// Room is the physical plant (sensor and heater faults).
	Room() *plant.Room
	// Events is the board's security-event stream (nil is fine).
	Events() *obs.EventLog
	// Metrics is the board's metric registry (nil is fine).
	Metrics() *obs.Registry
	// CrashProcess kills the named process as if it had crashed, so the
	// platform's recovery path (if any) observes a real crash.
	CrashProcess(name string) error
	// SetIPCFault installs fn as the kernel's IPC fault filter, consulted
	// after policy checks on every message with the platform's (src, dst)
	// names. nil clears it.
	SetIPCFault(fn func(src, dst string) (drop bool, delay time.Duration))
	// Flood opens count host-side connections against the web interface,
	// each writing one request that is never read back.
	Flood(count int) error
}

// window is one active IPC-fault interval.
type window struct {
	from, to machine.Time
	src, dst string // empty = wildcard
	drop     bool
	delay    time.Duration
}

// matches reports whether the window applies to a (src, dst) pair at now.
// A hang window (src == dst == target) matches traffic in either direction.
func (w *window) matches(now machine.Time, src, dst string) bool {
	if now < w.from || now >= w.to {
		return false
	}
	if w.src == w.dst && w.src != "" { // hang: either endpoint
		return nameMatch(src, w.src) || nameMatch(dst, w.src)
	}
	if w.src != "" && !nameMatch(src, w.src) {
		return false
	}
	if w.dst != "" && !nameMatch(dst, w.dst) {
		return false
	}
	return true
}

// nameMatch accepts exact process names plus platform-qualified endpoint
// names like "tempProc.sensor" (seL4) or "/sensor-data" queues that embed
// the process name.
func nameMatch(name, want string) bool {
	return name == want || strings.HasPrefix(name, want+".")
}

// FaultOutcome is the per-fault result row: when it fired and, if a clean
// sensor reading was reacquired afterwards, the mean-time-to-recovery.
// Times are int64 nanoseconds so JSON is integer-exact and deterministic.
type FaultOutcome struct {
	Kind          Kind   `json:"kind"`
	Target        string `json:"target,omitempty"`
	AtNs          int64  `json:"at_ns"`
	Injected      bool   `json:"injected"`
	RecoveredAtNs int64  `json:"recovered_at_ns"` // -1 while unrecovered
	MTTRNs        int64  `json:"mttr_ns"`         // -1 while unrecovered
}

// Report summarises a campaign run on one board.
type Report struct {
	Plan        string         `json:"plan"`
	Faults      []FaultOutcome `json:"faults"`
	Injected    int            `json:"injected"`
	Recovered   int            `json:"recovered"`
	Unrecovered int            `json:"unrecovered"`
	MTTRCount   int64          `json:"mttr_count"`
	MTTRSumNs   int64          `json:"mttr_sum_ns"`
	MTTRMaxNs   int64          `json:"mttr_max_ns"`
}

// Injector is an armed plan on one board.
type Injector struct {
	board    Board
	plan     *Plan
	armed    machine.Time
	windows  []window
	outcomes []FaultOutcome
	earliest []machine.Time // per fault: first instant a clean read counts
}

// Arm validates plan and schedules every fault on the board clock. Call it
// once, after deployment and before running the board. Faults with offsets
// already in the past fire at the next clock step.
func Arm(b Board, plan *Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	for i, f := range plan.Faults {
		if BusKind(f.Kind) {
			return nil, fmt.Errorf("faultinject: fault %d: %s is a bus-level fault; arm it through NewBusInjector, not on a board", i, f.Kind)
		}
	}
	inj := &Injector{board: b, plan: plan, armed: b.Clock().Now()}
	inj.outcomes = make([]FaultOutcome, len(plan.Faults))
	inj.earliest = make([]machine.Time, len(plan.Faults))
	needFilter := false
	for i, f := range plan.Faults {
		at := inj.armed.Add(f.At)
		inj.outcomes[i] = FaultOutcome{
			Kind: f.Kind, Target: f.Target, AtNs: int64(f.At),
			RecoveredAtNs: -1, MTTRNs: -1,
		}
		inj.earliest[i] = at.Add(f.Duration)
		switch f.Kind {
		case KindIPCDrop:
			inj.windows = append(inj.windows, window{
				from: at, to: at.Add(f.Duration), src: f.Src, dst: f.Target, drop: true,
			})
			needFilter = true
		case KindIPCDelay:
			inj.windows = append(inj.windows, window{
				from: at, to: at.Add(f.Duration), src: f.Src, dst: f.Target, delay: f.Delay,
			})
			needFilter = true
		case KindDriverHang:
			inj.windows = append(inj.windows, window{
				from: at, to: at.Add(f.Duration), src: f.Target, dst: f.Target, drop: true,
			})
			needFilter = true
		}
	}
	if needFilter {
		b.SetIPCFault(inj.filter)
	}
	// The plant read hook is the recovery probe: the first clean sensor
	// reading at or after a fault's effect window closes recovery for it.
	b.Room().SetSensorReadHook(inj.onSensorRead)
	for i := range plan.Faults {
		i := i
		b.Clock().After(plan.Faults[i].At, func() { inj.fire(i) })
	}
	return inj, nil
}

// filter is the kernel-facing IPC fault decision.
func (inj *Injector) filter(src, dst string) (bool, time.Duration) {
	now := inj.board.Clock().Now()
	var delay time.Duration
	for i := range inj.windows {
		w := &inj.windows[i]
		if !w.matches(now, src, dst) {
			continue
		}
		if w.drop {
			return true, 0
		}
		if w.delay > delay {
			delay = w.delay
		}
	}
	return false, delay
}

// fire injects fault i at its scheduled instant.
func (inj *Injector) fire(i int) {
	f := inj.plan.Faults[i]
	inj.outcomes[i].Injected = true
	if ev := inj.board.Events(); ev != nil {
		ev.Emit(obs.SecurityEvent{
			Kind:      obs.EventFaultInjected,
			Mechanism: obs.MechFaultInject,
			Src:       "faultinject",
			Dst:       f.Target,
			Detail:    f.String(),
		})
	}
	if reg := inj.board.Metrics(); reg != nil {
		reg.Counter("fault_injected_total").Inc()
	}
	room := inj.board.Room()
	clock := inj.board.Clock()
	switch f.Kind {
	case KindDriverCrash:
		if err := inj.board.CrashProcess(f.Target); err != nil && inj.board.Events() != nil {
			inj.board.Events().Emit(obs.SecurityEvent{
				Kind:      obs.EventFaultInjected,
				Mechanism: obs.MechFaultInject,
				Src:       "faultinject",
				Dst:       f.Target,
				Detail:    "crash failed: " + err.Error(),
			})
		}
	case KindSensorStuck:
		room.StickSensor(f.Value)
		if f.Duration > 0 {
			clock.After(f.Duration, room.UnstickSensor)
		}
	case KindSensorDrift:
		room.SetSensorDrift(f.Value)
		if f.Duration > 0 {
			clock.After(f.Duration, func() { room.SetSensorDrift(0) })
		}
	case KindHeaterFail:
		room.FailHeater(true)
		if f.Duration > 0 {
			clock.After(f.Duration, func() { room.FailHeater(false) })
		}
	case KindWebFlood:
		if err := inj.board.Flood(f.Count); err != nil && inj.board.Events() != nil {
			inj.board.Events().Emit(obs.SecurityEvent{
				Kind:      obs.EventFaultInjected,
				Mechanism: obs.MechFaultInject,
				Src:       "faultinject",
				Detail:    "flood failed: " + err.Error(),
			})
		}
	case KindDriverHang, KindIPCDrop, KindIPCDelay:
		// Windowed transport faults act through the installed filter.
	}
}

// onSensorRead closes recovery for every injected fault whose effect window
// has passed, the first time a clean reading arrives.
func (inj *Injector) onSensorRead(at machine.Time, _ float64, faulted bool) {
	if faulted {
		return
	}
	for i := range inj.outcomes {
		o := &inj.outcomes[i]
		if !o.Injected || o.RecoveredAtNs >= 0 || at < inj.earliest[i] {
			continue
		}
		o.RecoveredAtNs = int64(at.Sub(inj.armed))
		o.MTTRNs = o.RecoveredAtNs - o.AtNs
		if reg := inj.board.Metrics(); reg != nil {
			reg.Histogram("fault_mttr", nil).Observe(time.Duration(o.MTTRNs))
		}
	}
}

// Report snapshots the campaign outcome. Call after the board run.
func (inj *Injector) Report() *Report {
	return newReport(inj.plan.Name, append([]FaultOutcome(nil), inj.outcomes...))
}

// newReport folds a campaign's per-fault outcomes into its report: every
// injected fault is recovered or not, and each recovery adds its MTTR.
func newReport(plan string, faults []FaultOutcome) *Report {
	r := &Report{Plan: plan, Faults: faults}
	for _, o := range faults {
		if !o.Injected {
			continue
		}
		r.Injected++
		if o.RecoveredAtNs < 0 {
			r.Unrecovered++
			continue
		}
		r.Recovered++
		r.MTTRCount++
		r.MTTRSumNs += o.MTTRNs
		r.MTTRMaxNs = max(r.MTTRMaxNs, o.MTTRNs)
	}
	return r
}

// ViolationsDuring counts safety-violation timestamps that fall inside any
// fault's effect window: from injection until recovery (or forever if
// unrecovered). boardStart anchors the outcome offsets to monitor timestamps.
// Taking bare timestamps rather than safety.Violation values keeps this
// package below the safety monitor in the import graph.
func ViolationsDuring(boardStart machine.Time, rep *Report, violationTimes []machine.Time) int {
	n := 0
	for _, at := range violationTimes {
		if InWindow(boardStart, rep, at) {
			n++
		}
	}
	return n
}

// InWindow reports whether instant at falls inside any injected fault's
// effect window: from injection until recovery, open-ended if unrecovered.
func InWindow(boardStart machine.Time, rep *Report, at machine.Time) bool {
	if rep == nil {
		return false
	}
	for _, o := range rep.Faults {
		if !o.Injected {
			continue
		}
		if at < boardStart.Add(time.Duration(o.AtNs)) {
			continue
		}
		if o.RecoveredAtNs >= 0 && at > boardStart.Add(time.Duration(o.RecoveredAtNs)) {
			continue
		}
		return true
	}
	return false
}

// Windows exposes the active transport-fault windows (tests).
func (inj *Injector) Windows() int { return len(inj.windows) }

// Plan returns the armed plan.
func (inj *Injector) Plan() *Plan { return inj.plan }
