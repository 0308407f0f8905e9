// Package attack implements the paper's Section IV-D attack simulations and
// the harness that reproduces its platform-comparison results (experiment
// E1).
//
// Threat model, exactly as in the paper: the web interface process is
// compromised and executes arbitrary attacker code, with "enough knowledge
// about other control processes" (names, queue names, pid ranges, slot
// numbers). The second attacker model additionally holds root, obtained
// through a simulated privilege-escalation exploit.
//
// Each attack runs on a fresh testbed: the scenario settles for 30 virtual
// minutes, the attack executes for 3 virtual hours, and ground-truth safety
// monitors (internal/safety) decide whether the physical world was
// compromised. The attacker's own success/denial counters are recorded
// separately — a denied operation that caused no physical deviation is the
// microkernel story; an accepted operation with physical deviation is the
// Linux story.
package attack

import (
	"fmt"
	"strings"
	"time"

	"mkbas/internal/bas"
	"mkbas/internal/faultinject"
	"mkbas/internal/machine"
	"mkbas/internal/obs"
	"mkbas/internal/perf"
	"mkbas/internal/polcheck/monitor"
	"mkbas/internal/safety"
)

// Action selects the attack.
type Action string

// Attacks from Section IV-D.
const (
	// ActionSpoofSensor impersonates the temperature sensor, feeding the
	// controller an in-range reading while the room drifts.
	ActionSpoofSensor Action = "spoof-sensor"
	// ActionCommandActuators sends heater-off/alarm-off commands directly
	// to the actuator drivers ("arbitrarily control the fan and LED").
	ActionCommandActuators Action = "command-actuators"
	// ActionKillController destroys the temperature control process.
	ActionKillController Action = "kill-controller"
	// ActionEnumerate brute-forces IPC handles: capability slots on seL4,
	// endpoints on MINIX, queue names on Linux.
	ActionEnumerate Action = "enumerate-handles"
	// ActionForkBomb spawns processes until stopped.
	ActionForkBomb Action = "fork-bomb"
	// ActionNone runs no attack: the legitimate web interface stays in
	// place. Chaos runs (experiment E10) use it so the safety verdict
	// isolates the injected fault and the platform's recovery response.
	ActionNone Action = "none"
)

// AllActions lists every attack.
func AllActions() []Action {
	return []Action{
		ActionSpoofSensor, ActionCommandActuators, ActionKillController,
		ActionEnumerate, ActionForkBomb,
	}
}

// Spec is one attack configuration.
type Spec struct {
	Platform bas.Platform
	Action   Action
	// Root applies the second attacker model (privilege escalation). On
	// seL4 there is no root to escalate to; the flag is accepted and noted.
	Root bool
	// ForkQuota, when > 0 on MINIX, applies the E8 quota policy.
	ForkQuota int
	// FaultPlan, when non-empty, names a builtin faultinject plan armed at
	// boot — the chaos campaign (E10). "none" is accepted and arms nothing.
	FaultPlan string
	// Recovery enables the optional recovery machinery (seL4 monitor,
	// hardened-Linux supervisor); see bas.DeployOptions.Recovery.
	Recovery bool
	// Monitor attaches the online policy monitor at deploy time; every IPC
	// delivery is verified against the certified access graph and drift is
	// recorded in the report. See bas.DeployOptions.Monitor.
	Monitor bool
	// Demote implies Monitor and adds the OAMAC origin response: the moment
	// the attack window opens, the compromised web subject is demoted to the
	// untrusted origin, so even its certified traffic is flagged as
	// origin-drift from then on.
	Demote bool
	// Profiler attaches the host-side performance profiler to the deployment
	// (see bas.DeployOptions.Profiler). Never marshalled: Spec is embedded in
	// Report, and host profiling is outside the determinism contract.
	Profiler *perf.Profiler `json:"-"`
}

// progress is the attacker's self-reported tally, shared between the
// malicious body and the report.
type progress struct {
	attempts  int
	successes int
	denials   int
	notes     []string
}

func (p *progress) note(format string, args ...any) {
	p.notes = append(p.notes, fmt.Sprintf(format, args...))
}

// Report is the outcome of one attack run.
type Report struct {
	Spec Spec
	// OperationSucceeded: at least one malicious operation was accepted by
	// the platform.
	OperationSucceeded bool
	// Attempts/Successes/Denials tally individual malicious operations.
	Attempts  int
	Successes int
	Denials   int
	// ControllerAlive: the temperature control process survived.
	ControllerAlive bool
	// PhysicalCompromise: ground-truth safety monitors recorded violations.
	PhysicalCompromise bool
	// Violations are the recorded safety breaches.
	Violations []safety.Violation
	// Notes carries attacker- and harness-observations.
	Notes []string
	// SecurityEvents are the denial events the platform's mediation layers
	// emitted during the run that the board's event ring retained, in
	// virtual-time order, kept compactly and resolved when read or exported.
	SecurityEvents obs.EventList
	// Mechanisms lists the distinct mediation mechanisms that denied at
	// least one operation (sorted; empty when nothing was denied).
	Mechanisms []obs.Mechanism
	// Obs is the board's observability snapshot at the end of the run —
	// counters, span stats, and event totals, without the embedded event
	// ring (the denied events are already in SecurityEvents). The fleet
	// runner (internal/lab) merges these across shards.
	Obs *obs.Report `json:"Obs,omitempty"`
	// IPCUsages is the board's aggregated IPC usage log at the end of the
	// run, sorted by (src, dst, label).
	IPCUsages []machine.IPCUsageCount `json:"IPCUsages,omitempty"`
	// Restarts counts scenario processes reincarnated by the platform's
	// recovery machinery during the run (omitted when zero, which keeps
	// fault-free reports byte-identical to earlier versions).
	Restarts int `json:"Restarts,omitempty"`
	// Recovered: the control plane died and was reincarnated, and is alive
	// now — the row the verdict renders as RECOVERED.
	Recovered bool `json:"Recovered,omitempty"`
	// FaultReport is the fault-injection campaign outcome (MTTR per fault);
	// nil when no plan was armed.
	FaultReport *faultinject.Report `json:"FaultReport,omitempty"`
	// ViolationsDuringFault counts safety violations that fell inside a
	// fault's effect window (injection to recovery).
	ViolationsDuringFault int `json:"ViolationsDuringFault,omitempty"`
	// MonitorStats is the online policy monitor's lifetime tally (observed
	// deliveries, policy drift, origin drift, demotions); nil when the
	// monitor was off. All-zero drift on an attacked board means the
	// platform denied the malicious traffic before it was ever delivered.
	MonitorStats *monitor.Stats `json:"MonitorStats,omitempty"`
}

// BlockedBy names the mediation layer(s) that denied attack operations,
// e.g. "acm" or "capability". Empty when no denial event was recorded.
func (r *Report) BlockedBy() string {
	parts := make([]string, len(r.Mechanisms))
	for i, m := range r.Mechanisms {
		parts[i] = string(m)
	}
	return strings.Join(parts, ", ")
}

// Verdict renders the cell for the E1 outcome matrix (and E10's chaos
// table). RECOVERED distinguishes "the platform reincarnated a dead process
// and the physical world stayed safe" from a run where nothing ever died.
func (r *Report) Verdict() string {
	switch {
	case r.PhysicalCompromise:
		return "COMPROMISED"
	case r.Recovered:
		return "RECOVERED"
	case r.OperationSucceeded:
		return "accepted-no-impact"
	default:
		return "BLOCKED"
	}
}

// Durations of the phases (virtual time).
const (
	settleTime = 30 * time.Minute
	attackTime = 3 * time.Hour
)

// safetyConfig is the safety monitor's configuration for a run of cfg's
// controller whose settle phase lasts settle: the monitor holds the
// controller's own setpoint, alarm tolerance and alarm delay, and waits
// out half the settle phase.
func safetyConfig(cfg bas.ScenarioConfig, settle time.Duration) safety.Config {
	c := safety.DefaultConfig()
	c.Setpoint = cfg.Controller.Setpoint
	c.Tolerance = cfg.Controller.AlarmTolerance
	c.AlarmDelay = cfg.Controller.AlarmDelay
	c.SettleTime = settle / 2
	return c
}

// boardReport builds the report of one attack run on the board tb, deployed
// as dep: the attack's progress, the safety violations that count, the
// board's denied events and observability report, its recovery state and,
// with the policy monitor on, the monitor's tally.
func boardReport(spec Spec, prog *progress, violations []safety.Violation, tb *bas.Testbed, dep *bas.Deployment) *Report {
	eventLog := tb.Machine.Obs().Events()
	alive := dep.ControllerAlive()
	report := &Report{
		Spec:               spec,
		OperationSucceeded: prog.successes > 0,
		Attempts:           prog.attempts,
		Successes:          prog.successes,
		Denials:            prog.denials,
		ControllerAlive:    alive,
		Violations:         violations,
		PhysicalCompromise: len(violations) > 0 || !alive,
		Notes:              prog.notes,
		SecurityEvents:     eventLog.Denied(),
		Mechanisms:         eventLog.Mechanisms(),
		Obs:                dep.Report(false),
		IPCUsages:          tb.Machine.IPC().Usages(),
		Restarts:           dep.ControllerRestarts(),
		Recovered:          dep.ControllerRecovered(),
	}
	if pm := dep.PolicyMonitor(); pm != nil {
		stats := pm.Stats()
		report.MonitorStats = &stats
	}
	return report
}

// Execute runs one attack end to end on a fresh testbed with the default
// scenario.
func Execute(spec Spec) (*Report, error) {
	return ExecuteScenario(spec, bas.DefaultScenario())
}

// ExecuteScenario runs one attack end to end on a fresh testbed built from
// cfg — the entry point parameter sweeps use to vary plant physics and
// controller tuning per case.
func ExecuteScenario(spec Spec, cfg bas.ScenarioConfig) (*Report, error) {
	if IsAPIAction(spec.Action) {
		return executeAPIScenario(spec, cfg)
	}
	tb := bas.NewTestbed(cfg)
	defer tb.Machine.Shutdown()

	prog := &progress{}
	dep, err := deployForSpec(tb, cfg, spec, prog)
	if err != nil {
		return nil, err
	}

	// Arm the chaos campaign (if any) after deploy, before the run starts.
	var inj *faultinject.Injector
	armStart := tb.Machine.Clock().Now()
	if spec.FaultPlan != "" {
		plan, perr := faultinject.Lookup(spec.FaultPlan)
		if perr != nil {
			return nil, fmt.Errorf("attack: %w", perr)
		}
		if len(plan.Faults) > 0 {
			inj, err = dep.ArmFaults(plan)
			if err != nil {
				return nil, fmt.Errorf("attack: arming faults: %w", err)
			}
		}
	}

	mon := safety.Attach(tb.Machine.Clock(), tb.Room, safetyConfig(cfg, settleTime))

	dep.Run(settleTime + attackTime)

	violations := mon.Violations()
	var faultRep *faultinject.Report
	if inj != nil {
		faultRep = inj.Report()
		violations = filterFailsafeAlarms(armStart, faultRep, violations)
	}

	report := boardReport(spec, prog, violations, tb, dep)
	if faultRep != nil {
		report.FaultReport = faultRep
		times := make([]machine.Time, len(violations))
		for i, v := range violations {
			times[i] = v.At
		}
		report.ViolationsDuringFault = faultinject.ViolationsDuring(armStart, faultRep, times)
	}
	return report, nil
}

// filterFailsafeAlarms drops alarm-honesty violations that fall inside an
// injected fault's effect window. The hardened controller's failsafe raises
// the alarm while it is blind — mandated behavior under the fault the
// harness itself injected, which the purely physical monitor cannot tell
// from an attacker blaring the alarm. Range and liveness violations always
// count: a fault is no excuse for a cold room or a silent alarm.
func filterFailsafeAlarms(start machine.Time, rep *faultinject.Report, vs []safety.Violation) []safety.Violation {
	kept := vs[:0]
	for _, v := range vs {
		if v.Property == safety.PropAlarmHonesty && faultinject.InWindow(start, rep, v.At) {
			continue
		}
		kept = append(kept, v)
	}
	return kept
}

// deployForSpec boots the platform under attack through the bas.Deploy
// registry, arming the malicious web interface body for every platform (the
// backend consults only its own) and the spec's attacker model.
func deployForSpec(tb *bas.Testbed, cfg bas.ScenarioConfig, spec Spec, prog *progress) (*bas.Deployment, error) {
	opts := bas.DeployOptions{
		WebRoot:  spec.Root,
		Recovery: spec.Recovery,
		Monitor:  spec.Monitor || spec.Demote,
		Profiler: spec.Profiler,
	}
	if spec.Action != ActionNone {
		opts.MinixWeb = minixAttackBody(spec.Action, prog)
		opts.Sel4Web = sel4AttackBody(spec.Action, prog)
		opts.LinuxWeb = linuxAttackBody(spec.Action, prog)
	}
	if spec.ForkQuota > 0 {
		opts.Policy = bas.MinixPolicy(false, false, spec.ForkQuota)
	}
	dep, err := bas.Deploy(spec.Platform, tb, cfg, opts)
	if err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}
	if spec.Demote && spec.Action != ActionNone {
		// The compromise verdict: the web interface is known attacker code,
		// so the monitor demotes it to the untrusted origin the moment the
		// attack window opens — certified web traffic is origin-drift from
		// then on.
		pm := dep.PolicyMonitor()
		tb.Machine.Clock().After(settleTime, func() {
			if pm.Demote(bas.NameWebInterface, monitor.OriginUntrusted) {
				prog.note("origin demotion: %s -> untrusted at attack start", bas.NameWebInterface)
			}
		})
	}

	switch {
	case dep.Minix != nil:
		if spec.Root {
			prog.note("web interface running with root uid (no effect expected: IPC authority is the ACM, not uid)")
		}
	case dep.Sel4 != nil:
		// There is no root to escalate to: "the seL4 kernel and CAmkES
		// generated code have no concept of user or root".
		if spec.Root {
			prog.note("root requested: seL4/CAmkES has no user/root concept; attack surface unchanged")
		}
		// The generated CapDL spec documents the attacker's whole authority.
		if verr := dep.Sel4.Verify(); verr != nil {
			prog.note("CapDL verification failed before attack: %v", verr)
		}
	case dep.Linux != nil:
		// Root escalation is injected five minutes before the attack window
		// opens ("root privilege gained through a privilege escalation
		// exploit").
		if spec.Root {
			tb.Machine.Clock().After(settleTime-5*time.Minute, func() {
				webPID, pidErr := dep.Linux.PIDOf(bas.NameWebInterface)
				if pidErr != nil {
					prog.note("escalation failed: web process gone: %v", pidErr)
					return
				}
				if rootErr := dep.Linux.GrantRoot(webPID); rootErr != nil {
					prog.note("escalation failed: %v", rootErr)
				} else {
					prog.note("privilege escalation: web interface now uid 0")
				}
			})
		}
	}
	return dep, nil
}
