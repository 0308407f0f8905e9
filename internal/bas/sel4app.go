package bas

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"mkbas/internal/camkes"
	"mkbas/internal/capdl"
	"mkbas/internal/plant"
	"mkbas/internal/sel4"
	"mkbas/internal/vnet"
)

// CAmkES interface names and RPC method numbers for the scenario assembly.
// The interface names are the embedded model's port names: the web
// interface's ONLY connection is mgmt on the controller ("the web interface
// has only one capability, to communicate with the temperature controller
// process").
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

// sel4Binding is the seL4 binding of a deployment: a crash takes down a
// whole component, and the monitor component counts the restarts.
type sel4Binding struct{}

// crashProcess kills every live thread of the named component: a process
// crash on the component platform takes down the control thread and all
// interface threads together.
func (sel4Binding) crashProcess(d *Deployment, name string) error {
	found := false
	for _, th := range d.Sel4.ThreadNames() {
		if th != name && !strings.HasPrefix(th, name+".") {
			continue
		}
		if !d.Sel4.ThreadAlive(th) {
			continue
		}
		if err := d.Sel4.CrashThread(th); err != nil {
			return err
		}
		found = true
	}
	if !found {
		return fmt.Errorf("bas: no live threads for component %q", name)
	}
	return nil
}

func (sel4Binding) setIPCFault(d *Deployment, fn func(src, dst string) (bool, time.Duration)) {
	d.Sel4.Kernel().SetIPCFault(fn)
}

// controllerAlive reports whether both controller interface threads (sensor
// intake and management) are still running.
func (sel4Binding) controllerAlive(d *Deployment) bool {
	sys := d.Sel4
	sensorTCB, okS := sys.TCB(NameTempControl + "." + IfaceSensorIn)
	mgmtTCB, okM := sys.TCB(NameTempControl + "." + IfaceMgmt)
	return okS && okM && sys.Kernel().ThreadAlive(sensorTCB) && sys.Kernel().ThreadAlive(mgmtTCB)
}

// restarts reports monitor respawns across all threads.
func (sel4Binding) restarts(d *Deployment) int { return d.Sel4.TotalRestarts() }

// scenarioAssembly is the Fig. 2 scenario's CAmkES assembly. Its
// components, their interfaces and the connections between them are the
// topology the embedded model compiles to, and each component's priority
// and devices are the model's; this function attaches each component's net
// ports, handlers and run body. web, when non-nil, replaces the web
// interface's body; gateway, when non-nil, is the BACnet gateway's body and
// adds its component.
func scenarioAssembly(cfg ScenarioConfig, web, gateway func(rt *camkes.Runtime)) *camkes.Assembly {
	loop := controlLoop[*camkes.Runtime]{Controller: NewController(cfg.Controller), traceStatus: true,
		actuate: func(rt *camkes.Runtime, a actuator, on bool) {
			retryCommand(rt, a, func() error {
				_, err := rt.Call(actuators[a].verb, methodActuate, b2u(on))
				return err
			})
		}}

	controller := &camkes.Component{
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
		dev := procOf(name).devices[0]
		return &camkes.Component{
			Provides: map[string]camkes.Handler{
				IfaceCmd: func(rt *camkes.Runtime, method uint64, args camkes.Words, badge sel4.Badge) (camkes.Words, error) {
					if method != methodActuate {
						return camkes.Words{}, errors.New("bas: unknown cmd method")
					}
					return camkes.Words{}, rt.DevWrite(dev, plant.RegActuate, uint32(args[0]))
				},
			},
		}
	}

	if web == nil {
		web = func(rt *camkes.Runtime) { webInterfaceBody(rt, &sel4ControlClient{rt: rt}, nil) }
	}
	topo := sel4Compiled(gateway != nil)
	assembly := &camkes.Assembly{Connections: make([]camkes.Connection, 0, len(topo.Connections))}
	for _, c := range topo.Connections {
		assembly.Connections = append(assembly.Connections, camkes.Connection{
			FromComp: c.FromComp, FromIface: c.FromIface, ToComp: c.ToComp, ToIface: c.ToIface,
		})
	}
	for _, spec := range topo.Components {
		var comp *camkes.Component
		switch spec.Name {
		case NameTempControl:
			comp = controller
		case NameHeaterAct, NameAlarmAct:
			comp = driver(spec.Name)
		case NameTempSensor:
			comp = &camkes.Component{Run: func(rt *camkes.Runtime) {
				runSensor(rt, cfg.SamplePeriod, func(raw uint32) bool {
					if _, err := rt.Call("ctrl", methodSample, math.Float64bits(plant.DecodeTemp(raw))); err != nil {
						rt.Trace("bas", fmt.Sprintf("sensor: sample delivery failed: %v", err))
					}
					return true
				})
			}}
		case NameWebInterface:
			comp = &camkes.Component{NetPorts: []vnet.Port{WebPort}, Run: web}
		case NameBACnetGateway:
			// Like the web interface the gateway uses only the controller's
			// mgmt interface; the controller tells the two clients apart by
			// badge.
			comp = &camkes.Component{NetPorts: []vnet.Port{BACnetPort}, Run: gateway}
		default:
			panic("bas: no behaviour for the model's seL4 component " + spec.Name)
		}
		// The model names the provided interfaces; this code only supplies
		// a handler for each.
		mismatch := len(comp.Provides) != len(spec.Provides)
		for _, iface := range spec.Provides {
			mismatch = mismatch || comp.Provides[iface] == nil
		}
		if mismatch {
			panic("bas: scenario handlers do not match the model's interfaces of " + spec.Name)
		}
		// The model also fixes each component's priority and devices.
		f := procOf(spec.Name)
		comp.Name, comp.Uses, comp.Priority, comp.Devices = spec.Name, spec.Uses, f.priority, f.devices
		assembly.Components = append(assembly.Components, comp)
	}
	return assembly
}

// Sel4Spec compiles the CapDL capability distribution a default seL4
// scenario board installs, without booting one.
func Sel4Spec() (*capdl.Spec, error) {
	return camkes.GenerateSpec(scenarioAssembly(DefaultScenario(), nil, nil))
}

// deploySel4 is the seL4 backend of the Deploy registry.
func deploySel4(d *Deployment, cfg ScenarioConfig, opts DeployOptions, gateway gatewayBody) (*image, error) {
	var gatewayRun func(rt *camkes.Runtime)
	if gateway != nil {
		gatewayRun = func(rt *camkes.Runtime) { gateway(rt, &sel4ControlClient{rt: rt}) }
	}
	assembly := scenarioAssembly(cfg, opts.Sel4Web, gatewayRun)
	img := sel4Default(sel4Key{bacnet: gateway != nil, watchdog: cfg.Controller.StalenessWindow > 0})
	// Pre-deploy gate: analyze the capability distribution the builder is
	// about to install. Attacker Sel4Web bodies run with the same caps — the
	// paper's threat model — so the gate holds for attack deployments too.
	if !opts.SkipPolicyCheck && img.verdict != nil {
		return nil, img.verdict
	}
	sys, err := camkes.Build(d.tb.Machine, img.camkes, assembly, camkes.BuildConfig{Net: d.tb.Net})
	if err != nil {
		return nil, fmt.Errorf("bas: building camkes assembly: %w", err)
	}
	if opts.Recovery {
		startSel4Monitor(d.tb, sys)
	}
	d.Sel4, d.kernel = sys, sel4Binding{}
	return &img.image, nil
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
	if err == nil {
		return nil
	}
	var rpcErr *camkes.RPCError
	if errors.As(err, &rpcErr) && rpcErr.Code == rpcCodeRange {
		return ErrSetpointRange
	}
	return err
}
