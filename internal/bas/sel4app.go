package bas

import (
	"errors"
	"fmt"
	"math"
	"time"

	"mkbas/internal/bacnet"
	"mkbas/internal/camkes"
	"mkbas/internal/capdl"
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
	ctrl := NewController(cfg.Controller)

	controller := &camkes.Component{
		Name:     NameTempControl,
		Priority: 5,
		Uses:     []string{"heater", "alarm"},
		Provides: map[string]camkes.Handler{
			IfaceSensorIn: func(rt *camkes.Runtime, method uint64, args []uint64, badge sel4.Badge) ([]uint64, error) {
				if method != methodSample {
					return nil, errors.New("bas: unknown sensor method")
				}
				temp := math.Float64frombits(args[0])
				heaterChanged, alarmChanged := ctrl.OnSample(rt.Now(), temp)
				if heaterChanged {
					sel4Actuate(rt, "heater", ctrl.HeaterOn())
				}
				if alarmChanged {
					sel4Actuate(rt, "alarm", ctrl.AlarmOn())
				}
				if ctrl.Snapshot().Samples%60 == 0 || heaterChanged || alarmChanged {
					rt.Trace("bas", ctrl.Snapshot().String())
				}
				return nil, nil
			},
			IfaceMgmt: func(rt *camkes.Runtime, method uint64, args []uint64, badge sel4.Badge) ([]uint64, error) {
				switch method {
				case methodStatus:
					st := ctrl.Snapshot()
					var flags uint64
					if st.HeaterOn {
						flags |= statusFlagHeater
					}
					if st.AlarmOn {
						flags |= statusFlagAlarm
					}
					return []uint64{
						math.Float64bits(st.Temp),
						math.Float64bits(st.Setpoint),
						flags,
						uint64(st.Samples),
					}, nil
				case methodSetSetpoint:
					if err := ctrl.SetSetpoint(math.Float64frombits(args[0])); err != nil {
						return nil, &camkes.RPCError{Iface: IfaceMgmt, Code: rpcCodeRange}
					}
					return nil, nil
				default:
					return nil, errors.New("bas: unknown mgmt method")
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
				heaterChanged, alarmChanged := ctrl.OnTick(rt.Now())
				if heaterChanged || alarmChanged {
					rt.Trace("bas", "controller: failsafe engaged, sensor readings stale")
				}
				if heaterChanged {
					sel4Actuate(rt, "heater", ctrl.HeaterOn())
				}
				if alarmChanged {
					sel4Actuate(rt, "alarm", ctrl.AlarmOn())
				}
			}
		}
	}

	actuator := func(name string, dev machineDeviceID) *camkes.Component {
		return &camkes.Component{
			Name:     name,
			Priority: 4,
			Devices:  []machineDeviceID{dev},
			Provides: map[string]camkes.Handler{
				IfaceCmd: func(rt *camkes.Runtime, method uint64, args []uint64, badge sel4.Badge) ([]uint64, error) {
					if method != methodActuate {
						return nil, errors.New("bas: unknown cmd method")
					}
					return nil, rt.DevWrite(dev, plant.RegActuate, uint32(args[0]))
				},
			},
		}
	}

	sensor := &camkes.Component{
		Name:     NameTempSensor,
		Priority: 6,
		Uses:     []string{"ctrl"},
		Devices:  []machineDeviceID{plant.DevTempSensor},
		Run: func(rt *camkes.Runtime) {
			for {
				rt.Sleep(cfg.SamplePeriod)
				raw, err := rt.DevRead(plant.DevTempSensor, plant.RegTempMilliC)
				if err != nil {
					continue
				}
				temp := plant.DecodeTemp(raw)
				if _, err := rt.Call("ctrl", methodSample, math.Float64bits(temp)); err != nil {
					rt.Trace("bas", fmt.Sprintf("sensor: sample delivery failed: %v", err))
				}
			}
		},
	}

	if webRun == nil {
		webRun = sel4WebBody
	}
	web := &camkes.Component{
		Name:     NameWebInterface,
		Priority: 7,
		Uses:     []string{IfaceMgmt},
		NetPorts: []vnet.Port{WebPort},
		Run:      webRun,
	}

	return &camkes.Assembly{
		Components: []*camkes.Component{
			controller,
			actuator(NameHeaterAct, plant.DevHeater),
			actuator(NameAlarmAct, plant.DevAlarm),
			sensor,
			web,
		},
		Connections: []camkes.Connection{
			{FromComp: NameTempSensor, FromIface: "ctrl", ToComp: NameTempControl, ToIface: IfaceSensorIn},
			{FromComp: NameTempControl, FromIface: "heater", ToComp: NameHeaterAct, ToIface: IfaceCmd},
			{FromComp: NameTempControl, FromIface: "alarm", ToComp: NameAlarmAct, ToIface: IfaceCmd},
			{FromComp: NameWebInterface, FromIface: IfaceMgmt, ToComp: NameTempControl, ToIface: IfaceMgmt},
		},
	}
}

// deploySel4 is the seL4 backend of the Deploy registry.
func deploySel4(tb *Testbed, cfg ScenarioConfig, opts DeployOptions) (*Sel4Deployment, error) {
	sup := newDeploySupervision(tb, &cfg, opts)
	assembly := ScenarioAssembly(cfg, opts.Sel4Web)
	if opts.BACnet.Enabled {
		// Appended here rather than inside ScenarioAssembly so the exported
		// assembly the AADL compiler tests compare against stays the five-
		// component Fig. 2 scenario. The deployment owns the proxy's
		// anti-replay state; a monitor-respawned gateway resumes from it.
		addSel4BACnetGateway(assembly, opts.BACnet, bacnet.NewProxyState(), tb.Machine.Obs(), sup)
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
		deploymentBase: deploymentBase{platform: PlatformSel4, tb: tb},
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

// sel4Actuate is the controller's bounded retry-with-backoff actuator RPC: a
// call aborted by a driver mid-respawn (or lost to injected faults) is
// retried briefly before this command cycle is abandoned.
func sel4Actuate(rt *camkes.Runtime, iface string, on bool) {
	backoff := 10 * time.Millisecond
	for attempt := 0; attempt < 3; attempt++ {
		_, err := rt.Call(iface, methodActuate, b2u(on))
		if err == nil {
			return
		}
		rt.Sleep(backoff)
		backoff *= 2
	}
	rt.Trace("bas", "controller: giving up on "+iface+" command")
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
	return Status{
		Temp:     math.Float64frombits(words[0]),
		Setpoint: math.Float64frombits(words[1]),
		HeaterOn: words[2]&statusFlagHeater != 0,
		AlarmOn:  words[2]&statusFlagAlarm != 0,
		Samples:  int64(words[3]),
	}, nil
}

func (c *sel4ControlClient) SetSetpoint(v float64) error {
	_, err := c.rt.Call(IfaceMgmt, methodSetSetpoint, math.Float64bits(v))
	var rpcErr *camkes.RPCError
	if errors.As(err, &rpcErr) && rpcErr.Code == rpcCodeRange {
		return ErrSetpointRange
	}
	return err
}

// sel4WebBody is the legitimate web interface control thread.
func sel4WebBody(rt *camkes.Runtime) {
	l, err := rt.NetListen(WebPort)
	if err != nil {
		rt.Trace("bas", fmt.Sprintf("web: listen failed: %v", err))
		return
	}
	ServeWeb(netListener{net: rt, l: l}, &sel4ControlClient{rt: rt}, nil)
}
