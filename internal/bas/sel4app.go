package bas

import (
	"errors"
	"fmt"
	"math"
	"time"

	"mkbas/internal/bacnet"
	"mkbas/internal/camkes"
	"mkbas/internal/capdl"
	"mkbas/internal/machine"
	"mkbas/internal/plant"
	"mkbas/internal/polcheck"
	"mkbas/internal/polcheck/monitor"
	"mkbas/internal/sel4"
	"mkbas/internal/vnet"
)

// CAmkES interface names and RPC method numbers for the scenario assembly.
// The assembly mirrors the AADL model: the web interface's ONLY connection
// is mgmt on the controller ("the web interface has only one capability, to
// communicate with the temperature controller process").
const (
	IfaceSensorIn = "sensor" // provided by controller, used by sensor driver
	IfaceMgmt     = "mgmt"   // provided by controller, used by web interface
	IfaceCmd      = "cmd"    // provided by each actuator driver

	methodSample      uint64 = 1
	methodStatus      uint64 = 1
	methodSetSetpoint uint64 = 2
	methodActuate     uint64 = 1

	rpcCodeRange uint64 = 2
)

// Sel4Deployment is the booted seL4/CAmkES platform.
type Sel4Deployment struct {
	deploymentBase
	System  *camkes.System
	Testbed *Testbed
}

var _ Deployment = (*Sel4Deployment)(nil)

// ControllerAlive reports whether both controller interface threads (sensor
// intake and management) are still running.
func (d *Sel4Deployment) ControllerAlive() bool {
	sensorTCB, okS := d.System.TCB(NameTempControl + "." + IfaceSensorIn)
	mgmtTCB, okM := d.System.TCB(NameTempControl + "." + IfaceMgmt)
	return okS && okM &&
		d.System.Kernel().ThreadAlive(sensorTCB) &&
		d.System.Kernel().ThreadAlive(mgmtTCB)
}

// ScenarioAssembly builds the CAmkES assembly for the Fig. 2 scenario. It is
// exported so the AADL→CAmkES compiler tests can compare their generated
// assembly against the hand-written one, as the authors did while their
// source-to-source compiler was in development.
func ScenarioAssembly(cfg ScenarioConfig, webRun func(rt *camkes.Runtime)) *camkes.Assembly {
	loop := controlLoop[*camkes.Runtime]{Controller: NewController(cfg.Controller), traceStatus: true,
		actuate: func(rt *camkes.Runtime, a actuator, on bool) {
			retryCommand(rt, a, func() error {
				_, err := rt.Call(actuators[a].verb, methodActuate, b2u(on))
				return err
			})
		}}

	controller := &camkes.Component{
		Name:     NameTempControl,
		Priority: roleOf(NameTempControl).priority,
		Uses:     []string{actuators[actHeater].verb, actuators[actAlarm].verb},
		Provides: map[string]camkes.Handler{
			IfaceSensorIn: func(rt *camkes.Runtime, method uint64, args camkes.Words, badge sel4.Badge) (camkes.Words, error) {
				if method != methodSample {
					return camkes.Words{}, errors.New("bas: unknown sensor method")
				}
				loop.onSample(rt, math.Float64frombits(args[0]))
				return camkes.Words{}, nil
			},
			IfaceMgmt: func(rt *camkes.Runtime, method uint64, args camkes.Words, badge sel4.Badge) (camkes.Words, error) {
				switch method {
				case methodStatus:
					w := loop.Snapshot().words()
					var out camkes.Words
					copy(out[:], w[:])
					return out, nil
				case methodSetSetpoint:
					if err := loop.SetSetpoint(math.Float64frombits(args[0])); err != nil {
						return camkes.Words{}, &camkes.RPCError{Iface: IfaceMgmt, Code: rpcCodeRange}
					}
					return camkes.Words{}, nil
				default:
					return camkes.Words{}, errors.New("bas: unknown mgmt method")
				}
			},
		},
	}
	// The control thread is the staleness watchdog: CAmkES gives every
	// thread of a component the component's full capability set, so the
	// ticker can push failsafe commands through the same heater/alarm
	// connections the sensor handler uses.
	if window := cfg.Controller.StalenessWindow; window > 0 {
		controller.Run = func(rt *camkes.Runtime) {
			for {
				rt.Sleep(window / 2)
				loop.watchdog(rt)
			}
		}
	}

	driver := func(name string) *camkes.Component {
		r := roleOf(name)
		return &camkes.Component{
			Name:     name,
			Priority: r.priority,
			Devices:  []machine.DeviceID{r.device},
			Provides: map[string]camkes.Handler{
				IfaceCmd: func(rt *camkes.Runtime, method uint64, args camkes.Words, badge sel4.Badge) (camkes.Words, error) {
					if method != methodActuate {
						return camkes.Words{}, errors.New("bas: unknown cmd method")
					}
					return camkes.Words{}, rt.DevWrite(r.device, plant.RegActuate, uint32(args[0]))
				},
			},
		}
	}

	sensor := &camkes.Component{
		Name:     NameTempSensor,
		Priority: roleOf(NameTempSensor).priority,
		Uses:     []string{"ctrl"},
		Devices:  []machine.DeviceID{plant.DevTempSensor},
		Run: func(rt *camkes.Runtime) {
			runSensor(rt, cfg.SamplePeriod, func(raw uint32) bool {
				if _, err := rt.Call("ctrl", methodSample, math.Float64bits(plant.DecodeTemp(raw))); err != nil {
					rt.Trace("bas", fmt.Sprintf("sensor: sample delivery failed: %v", err))
				}
				return true
			})
		},
	}

	if webRun == nil {
		webRun = func(rt *camkes.Runtime) { webInterfaceBody(rt, &sel4ControlClient{rt: rt}, nil) }
	}
	web := &camkes.Component{
		Name:     NameWebInterface,
		Priority: roleOf(NameWebInterface).priority,
		Uses:     []string{IfaceMgmt},
		NetPorts: []vnet.Port{WebPort},
		Run:      webRun,
	}

	return &camkes.Assembly{
		Components: []*camkes.Component{
			controller,
			driver(NameHeaterAct),
			driver(NameAlarmAct),
			sensor,
			web,
		},
		Connections: []camkes.Connection{
			{FromComp: NameTempSensor, FromIface: "ctrl", ToComp: NameTempControl, ToIface: IfaceSensorIn},
			{FromComp: NameTempControl, FromIface: actuators[actHeater].verb, ToComp: NameHeaterAct, ToIface: IfaceCmd},
			{FromComp: NameTempControl, FromIface: actuators[actAlarm].verb, ToComp: NameAlarmAct, ToIface: IfaceCmd},
			{FromComp: NameWebInterface, FromIface: IfaceMgmt, ToComp: NameTempControl, ToIface: IfaceMgmt},
		},
	}
}

// deploySel4 is the seL4 backend of the Deploy registry.
func deploySel4(platform Platform, tb *Testbed, cfg ScenarioConfig, opts DeployOptions) (Deployment, error) {
	sup := newDeploySupervision(tb, &cfg, opts)
	assembly := ScenarioAssembly(cfg, opts.Sel4Web)
	if opts.BACnet.Enabled {
		// Appended here rather than inside ScenarioAssembly so the exported
		// assembly the AADL compiler tests compare against stays the five-
		// component Fig. 2 scenario. The deployment owns the proxy's
		// anti-replay state; a monitor-respawned gateway resumes from it.
		state, board := bacnet.NewProxyState(), tb.Machine.Obs()
		assembly.Components = append(assembly.Components, &camkes.Component{
			Name:     NameBACnetGateway,
			Priority: gatewayPriority,
			Uses:     []string{IfaceMgmt},
			NetPorts: []vnet.Port{BACnetPort},
			Run: func(rt *camkes.Runtime) {
				bacnetGatewayBody(rt, &sel4ControlClient{rt: rt}, opts.BACnet, state, board, sup)
			},
		})
		// Like the web interface the gateway uses only the controller's mgmt
		// interface; the controller tells the two clients apart by badge.
		assembly.Connections = append(assembly.Connections, camkes.Connection{
			FromComp: NameBACnetGateway, FromIface: IfaceMgmt,
			ToComp: NameTempControl, ToIface: IfaceMgmt,
		})
	}
	// The capability distribution doubles as the monitor's certified graph,
	// so it is generated whenever either consumer needs it.
	var spec *capdl.Spec
	if !opts.SkipPolicyCheck || opts.Monitor {
		var err error
		spec, err = camkes.GenerateSpec(assembly)
		if err != nil {
			return nil, fmt.Errorf("bas: generating capdl spec: %w", err)
		}
	}
	// Pre-deploy gate: analyze the capability distribution the builder is
	// about to install. Attacker Sel4Web bodies run with the same caps — the
	// paper's threat model — so the gate holds for attack deployments too.
	if !opts.SkipPolicyCheck {
		if err := checkDeployPolicy(polcheck.FromCapDL(spec)); err != nil {
			return nil, err
		}
	}
	sys, err := camkes.Build(tb.Machine, assembly, camkes.BuildConfig{Net: tb.Net})
	if err != nil {
		return nil, fmt.Errorf("bas: building camkes assembly: %w", err)
	}
	if opts.Recovery {
		startSel4Monitor(tb, sys)
	}
	dep := &Sel4Deployment{
		deploymentBase: deploymentBase{platform: platform, tb: tb},
		System:         sys,
		Testbed:        tb,
	}
	if opts.Monitor {
		// Recorded traffic uses kernel names (threads "comp" / "comp.iface",
		// endpoints "comp.iface") while the spec graph uses CapDL names;
		// CapDLSubjectOf collapses threads to components and ChannelNames
		// translates the IPC objects.
		dep.attachMonitor(polcheck.FromCapDL(spec), monitor.Options{
			SubjectOf:    polcheck.CapDLSubjectOf,
			ChannelNames: camkes.ChannelNames(assembly),
			Profiler:     opts.Profiler,
		})
	}
	return dep, nil
}

// sel4MonitorPeriod paces the monitor's liveness sweep.
const sel4MonitorPeriod = time.Second

// startSel4Monitor installs the root-task monitor: seL4 itself has no restart
// policy (mechanism, not policy), so recovery lives in user space. The
// monitor sweeps every generated thread once a second and respawns the dead
// from the CapDL spec — the component-framework analogue of MINIX's
// reincarnation server. It runs on the board clock (root-task context, like
// the bootstrap that built the system), not as a kernel-privileged process.
func startSel4Monitor(tb *Testbed, sys *camkes.System) {
	watched := sys.ThreadNames()
	clock := tb.Machine.Clock()
	var sweep func()
	sweep = func() {
		for _, name := range watched {
			if sys.ThreadAlive(name) {
				continue
			}
			if err := sys.Respawn(name); err != nil {
				tb.Machine.Trace().Logf("monitor", "respawn %s failed: %v", name, err)
			} else {
				tb.Machine.Trace().Logf("monitor", "respawned %s", name)
			}
		}
		clock.After(sel4MonitorPeriod, sweep)
	}
	clock.After(sel4MonitorPeriod, sweep)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// sel4ControlClient adapts the mgmt RPC interface to ControlClient.
type sel4ControlClient struct {
	rt *camkes.Runtime
}

var _ ControlClient = (*sel4ControlClient)(nil)

func (c *sel4ControlClient) Status() (Status, error) {
	words, err := c.rt.Call(IfaceMgmt, methodStatus)
	if err != nil {
		return Status{}, err
	}
	return statusFromWords([4]uint64(words[:4])), nil
}

func (c *sel4ControlClient) SetSetpoint(v float64) error {
	_, err := c.rt.Call(IfaceMgmt, methodSetSetpoint, math.Float64bits(v))
	var rpcErr *camkes.RPCError
	if errors.As(err, &rpcErr) && rpcErr.Code == rpcCodeRange {
		return ErrSetpointRange
	}
	return err
}
