package bas

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mkbas/internal/camkes"
	"mkbas/internal/core"
	"mkbas/internal/faultinject"
	"mkbas/internal/linuxsim"
	"mkbas/internal/machine"
	"mkbas/internal/minix"
	"mkbas/internal/obs"
	"mkbas/internal/perf"
	"mkbas/internal/polcheck"
	"mkbas/internal/polcheck/monitor"
)

// Platform names a deployment backend in the registry. The spellings match
// the attack library's E1 outcome table, so a platform string moves between
// the deploy API, the attack harness, and the fleet runner unchanged.
type Platform string

// Registered platforms. The three headline systems are the paper's
// comparison; the vanilla and hardened variants are the ablations that
// isolate the load-bearing mechanism on each side.
const (
	// PlatformMinix is the security-enhanced MINIX 3 (ACM enforced).
	PlatformMinix Platform = "minix3-acm"
	// PlatformMinixVanilla is MINIX 3 with the ACM disabled (ablation).
	PlatformMinixVanilla Platform = "minix3-vanilla"
	// PlatformSel4 is seL4 with the CAmkES-generated capability system.
	PlatformSel4 Platform = "sel4"
	// PlatformLinux is the same-account Linux deployment (paper default).
	PlatformLinux Platform = "linux"
	// PlatformLinuxHardened is the unique-account Linux deployment.
	PlatformLinuxHardened Platform = "linux-hardened"
)

// AllPlatforms lists the headline platforms in the paper's order.
func AllPlatforms() []Platform {
	return []Platform{PlatformLinux, PlatformMinix, PlatformSel4}
}

// KnownPlatforms lists every registered platform, sorted.
func KnownPlatforms() []Platform {
	out := make([]Platform, 0, len(deployers))
	for p := range deployers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Deployment is the platform-neutral handle on a booted board. Every
// backend returns one, so orchestration layers (the attack harness, the
// fleet runner) drive heterogeneous deployments through one shape.
//
// A Deployment is bound to the single board it booted on: like everything
// else in the simulation, its methods follow the engine-serialised
// discipline of one board and must not be called from another board's
// goroutines.
type Deployment interface {
	// Platform reports which registered backend produced this deployment.
	Platform() Platform
	// Machine returns the underlying virtual board.
	Machine() *machine.Machine
	// Run drives the board for a virtual duration.
	Run(d time.Duration) machine.RunResult
	// Shutdown tears the board down; the deployment is unusable afterwards.
	Shutdown()
	// Report snapshots the board's observability state under this
	// deployment's platform name.
	Report(includeEvents bool) *obs.Report
	// ControllerAlive reports whether the temperature control process (the
	// attack experiments' kill target) is still running.
	ControllerAlive() bool
	// ControllerRestarts reports how many times the platform's recovery
	// machinery reincarnated scenario processes on this boot. Zero on
	// platforms without recovery (vanilla Linux has no supervisor).
	ControllerRestarts() int
	// ControllerRecovered distinguishes "died" from "died and was
	// reincarnated": the control plane is alive now AND at least one restart
	// happened. ControllerAlive alone cannot tell the two apart — it reads
	// true both for a process that never died and for one mid-recovery.
	ControllerRecovered() bool
	// ArmFaults schedules a deterministic fault-injection plan against this
	// board. Call after deploy, before Run; the returned injector reports
	// outcomes (MTTR, unrecovered faults) once the run completes.
	ArmFaults(plan *faultinject.Plan) (*faultinject.Injector, error)
	// PolicyMonitor returns the online policy monitor attached at deploy
	// time, or nil when DeployOptions.Monitor was off.
	PolicyMonitor() *monitor.Monitor
}

// DeployOptions is the platform-neutral option set for Deploy. Each backend
// consults only the fields relevant to it and ignores the rest, so one
// options value can parameterise a whole fleet sweep across platforms.
type DeployOptions struct {
	// SkipPolicyCheck disables the pre-deploy static policy gate. The gate
	// runs whenever the selected platform deploys a mediation policy that
	// claims the scenario's security contract: the MINIX ACM
	// (PlatformMinix), the generated CapDL capability distribution
	// (PlatformSel4), and the hardened unique-account DAC configuration
	// (PlatformLinuxHardened). Configurations that deploy no such policy
	// have nothing to certify and skip the gate regardless of this field:
	// PlatformMinixVanilla (DisableACM — vanilla MINIX enforces nothing)
	// and the same-account PlatformLinux default (every process is one DAC
	// principal, so the mode bits express no per-process policy; that gap
	// is the paper's baseline finding). Attack experiments that
	// deliberately deploy over-permissive policies set it; production
	// paths never should.
	SkipPolicyCheck bool
	// Policy overrides the default core.ScenarioPolicy(). MINIX platforms
	// only.
	Policy *core.Policy
	// WebRoot runs the web interface as uid 0 at boot, modelling the
	// paper's root-escalated attacker. MINIX platforms only: seL4 has no
	// user/root concept, and on Linux the attack harness models escalation
	// at runtime via Kernel.GrantRoot instead.
	WebRoot bool
	// MinixWeb, Sel4Web, and LinuxWeb replace the legitimate web interface
	// with attacker code on the respective platform ("we assume the web
	// interface process can execute arbitrary code"). Only the selected
	// platform's field is consulted; nil keeps the legitimate body.
	MinixWeb func(api *minix.API)
	Sel4Web  func(rt *camkes.Runtime)
	LinuxWeb func(api *linuxsim.API)
	// Recovery enables the optional recovery machinery on platforms where it
	// is a deployment choice rather than part of the platform: the seL4
	// monitor component (watches every scenario thread, respawns the dead
	// from the CapDL spec) and the hardened-Linux supervisor (root
	// supervisord-style respawn loop). MINIX ignores it — the reincarnation
	// server is integral to the platform and always runs. Plain Linux
	// (PlatformLinux) also ignores it: the paper's default deployment has no
	// supervisor, which is exactly the gap the chaos experiment (E10)
	// measures.
	Recovery bool
	// BACnet adds the field-bus gateway process so the board can serve a
	// building's supervisory network. All platforms honour it.
	BACnet BACnetOptions
	// TenantAPI provisions the board-side identity of the occupant-scale
	// tenant API tier: MINIX platforms select the tenant-gateway-extended
	// default policy (the certified ACM row the gateway's setpoint writes
	// and status polls are mediated under), and the Linux monitor graphs
	// gain the gateway's hardened account so tenant traffic is verified
	// against the certified shape. The tier itself (sessions, RBAC, rate
	// limits) runs host-side in internal/tenantapi and fronts the board
	// through the web interface — this option certifies the board half.
	TenantAPI bool
	// Monitor attaches the online policy monitor: every IPC delivery the
	// kernel records is checked, in the same virtual tick, against the
	// certified static access graph for this deployment, and traffic
	// outside it emits a typed policy-drift security event. Unlike the
	// pre-deploy gate, the monitor runs on every configuration — including
	// the ones that enforce nothing (vanilla MINIX, same-account Linux),
	// where runtime verification is the only policy check there is. All
	// platforms honour it.
	Monitor bool
	// Profiler attaches the host-side performance profiler: Deploy books its
	// own wall-clock cost into the "bas.deploy" phase, binds the board engine
	// (engine.run / engine.dispatch phases), and threads the profiler into
	// the policy monitor (monitor.observe). nil profiles nothing — the wired
	// scopes all discard. All platforms honour it. Never marshalled: host
	// profiling is outside the determinism contract.
	Profiler *perf.Profiler `json:"-"`
}

// deployer is one registry entry: boot cfg on tb under opts.
type deployer func(tb *Testbed, cfg ScenarioConfig, opts DeployOptions) (Deployment, error)

// deployers is the platform registry. Variants share a backend: the
// platform value tells the backend which configuration to boot.
var deployers = map[Platform]deployer{
	PlatformMinix: func(tb *Testbed, cfg ScenarioConfig, opts DeployOptions) (Deployment, error) {
		return deployMinix(PlatformMinix, tb, cfg, opts)
	},
	PlatformMinixVanilla: func(tb *Testbed, cfg ScenarioConfig, opts DeployOptions) (Deployment, error) {
		return deployMinix(PlatformMinixVanilla, tb, cfg, opts)
	},
	PlatformSel4: func(tb *Testbed, cfg ScenarioConfig, opts DeployOptions) (Deployment, error) {
		return deploySel4(tb, cfg, opts)
	},
	PlatformLinux: func(tb *Testbed, cfg ScenarioConfig, opts DeployOptions) (Deployment, error) {
		return deployLinux(PlatformLinux, tb, cfg, opts)
	},
	PlatformLinuxHardened: func(tb *Testbed, cfg ScenarioConfig, opts DeployOptions) (Deployment, error) {
		return deployLinux(PlatformLinuxHardened, tb, cfg, opts)
	},
}

// Deploy boots cfg on tb under the named platform — the single entry point
// every orchestration layer routes through.
func Deploy(platform Platform, tb *Testbed, cfg ScenarioConfig, opts DeployOptions) (Deployment, error) {
	deploy, ok := deployers[platform]
	if !ok {
		known := KnownPlatforms()
		names := make([]string, len(known))
		for i, p := range known {
			names[i] = string(p)
		}
		return nil, fmt.Errorf("bas: unknown platform %q (known: %s)", platform, strings.Join(names, ", "))
	}
	// Bind the board before booting so boot-time engine activity is
	// attributed too; the deploy scope itself covers image construction,
	// policy gating, and process spawning.
	sc := opts.Profiler.Phase("bas.deploy").Begin()
	defer sc.End()
	tb.Machine.SetProfiler(opts.Profiler)
	return deploy(tb, cfg, opts)
}

// deploymentBase carries the platform-independent half of every Deployment.
type deploymentBase struct {
	platform Platform
	tb       *Testbed
	mon      *monitor.Monitor
}

// scenarioOrigins is the OAMAC-style provenance assignment shared by every
// platform's monitor: drivers, actuators, the gateway, and the loader come
// from the verified boot image; the controller is operator logic; the web
// interface is the web-facing surface an exploit lands on. Subject names
// are identical across the three platforms, so one map serves all.
func scenarioOrigins() map[string]monitor.Origin {
	return map[string]monitor.Origin{
		NameTempSensor:    monitor.OriginBoot,
		NameHeaterAct:     monitor.OriginBoot,
		NameAlarmAct:      monitor.OriginBoot,
		NameBACnetGateway: monitor.OriginBoot,
		NameTenantGateway: monitor.OriginBoot,
		NameScenario:      monitor.OriginBoot,
		NameTempControl:   monitor.OriginOperator,
		NameWebInterface:  monitor.OriginWeb,
	}
}

// attachMonitor builds the online verifier over the certified graph and
// subscribes it to the board's IPC record stream. Drift events land in the
// board's own event log, so they surface through Report like any mediation
// event.
func (d *deploymentBase) attachMonitor(g *polcheck.Graph, opts monitor.Options) {
	opts.Events = d.tb.Machine.Obs().Events()
	if opts.Origins == nil {
		opts.Origins = scenarioOrigins()
	}
	d.mon = monitor.New(g, opts)
	d.tb.Machine.IPC().SetObserver(d.mon.Observe)
}

func (d *deploymentBase) PolicyMonitor() *monitor.Monitor { return d.mon }

func (d *deploymentBase) Platform() Platform        { return d.platform }
func (d *deploymentBase) Machine() *machine.Machine { return d.tb.Machine }
func (d *deploymentBase) Run(dur time.Duration) machine.RunResult {
	return d.tb.Machine.Run(dur)
}
func (d *deploymentBase) Shutdown() { d.tb.Machine.Shutdown() }
func (d *deploymentBase) Report(includeEvents bool) *obs.Report {
	return d.tb.Machine.Obs().Report(string(d.platform), includeEvents)
}
