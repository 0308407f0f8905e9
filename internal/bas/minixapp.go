package bas

import (
	"errors"
	"fmt"
	"time"

	"mkbas/internal/core"
	"mkbas/internal/machine"
	"mkbas/internal/minix"
	"mkbas/internal/plant"
	"mkbas/internal/polcheck"
	"mkbas/internal/polcheck/monitor"
)

// MINIX payload layout for the scenario protocol (offsets into the 56-byte
// payload):
//
//	MsgSensorData     temp f64@0
//	MsgHeaterCmd      on u32@0            → ack (type 0)
//	MsgAlarmCmd       on u32@0            → ack (type 0)
//	MsgSetpointUpdate value f64@0         → ack: code u32@0
//	MsgStatusQuery    —                   → ack: temp f64@0, setpoint f64@8,
//	                                        flags u32@16 (bit0 heater,
//	                                        bit1 alarm), samples i64@24
//
// The status ack is Status.words at offsets 0/8/16/24; the flags word's
// upper half, bytes 20–23, is always zero.

// minixBinding is the MINIX binding of a deployment: the kernel crashes
// processes and filters IPC itself, and its reincarnation server counts
// the restarts.
type minixBinding struct{}

func (minixBinding) crashProcess(d *Deployment, name string) error {
	return d.Minix.CrashProcess(name)
}

func (minixBinding) setIPCFault(d *Deployment, fn func(src, dst string) (bool, time.Duration)) {
	d.Minix.SetIPCFault(fn)
}

// controllerAlive reports whether the temperature control process still
// has a live endpoint.
func (minixBinding) controllerAlive(d *Deployment) bool {
	_, err := d.Minix.EndpointOf(NameTempControl)
	return err == nil
}

// restarts reports the reincarnation server's total restarts.
func (minixBinding) restarts(d *Deployment) int { return int(d.Minix.RS().TotalRestarts()) }

// deployMinix is the MINIX backend of the Deploy registry: it boots the
// kernel and starts the scenario loader, which forks the five application
// processes with their ac_ids (Section IV-A). The deployment's platform
// selects whether the ACM is enforced (PlatformMinix) or ablated
// (PlatformMinixVanilla).
func deployMinix(d *Deployment, cfg ScenarioConfig, opts DeployOptions, gateway gatewayBody) (*image, error) {
	tb, disableACM := d.tb, d.platform == PlatformMinixVanilla
	// Pre-deploy gate: prove the matrix satisfies the scenario's security
	// contract before any process runs. The vanilla ablation skips it —
	// vanilla MINIX enforces nothing, so there is no policy to certify.
	gate := !opts.SkipPolicyCheck && !disableACM
	var img *image
	policy := opts.Policy
	if policy == nil {
		// Optional gateways each need their own ACM row; the certified
		// matrix is the deployed matrix.
		a := minixDefault(opts.BACnet.Enabled, opts.TenantAPI, core.QuotaUnlimited)
		policy, img = a.policy, &a.image
	} else if a, ok := minixCompiled.Load(*policy); ok {
		// A policy the table compiled (E8's quota variant) has its image.
		img = &a.(*minixImage).image
	} else if gate || opts.Monitor {
		// A caller-supplied policy is certified here, on every deploy.
		img = &image{graph: polcheck.FromPolicy(policy)}
		if gate {
			img.verdict = checkDeployPolicy(img.graph)
		}
		if opts.Monitor {
			img.index = monitor.NewIndex(img.graph, monitor.IndexOptions{Origins: scenarioModel().origins})
		}
	}
	if gate && img.verdict != nil {
		return nil, img.verdict
	}
	k, err := minix.Boot(tb.Machine, policy, minix.Config{
		Net:        tb.Net,
		DisableACM: disableACM,
	})
	if err != nil {
		return nil, fmt.Errorf("bas: booting minix: %w", err)
	}

	webBody := opts.MinixWeb
	if webBody == nil {
		webBody = func(api *minix.API) { webInterfaceBody(api, minixDial(api), nil) }
	}
	for _, name := range forkOrder {
		f := procOf(name)
		// Drivers are reincarnated by RS.
		img := minix.Image{Name: name, Priority: f.priority, Devices: f.devices, Restart: len(f.devices) > 0}
		switch name {
		case NameHeaterAct:
			img.Body = minixActuatorBody(actHeater, f.devices[0])
		case NameAlarmAct:
			img.Body = minixActuatorBody(actAlarm, f.devices[0])
		case NameTempControl:
			img.Body = minixControllerBody(cfg.Controller)
		case NameTempSensor:
			img.Body = minixSensorBody(cfg.SamplePeriod)
		case NameWebInterface:
			img.Net, img.UID, img.Body = true, 1000, webBody
			if opts.WebRoot {
				img.UID = 0
			}
		}
		k.RegisterImage(img)
	}
	loader := procOf(NameScenario)
	k.RegisterImage(minix.Image{Name: NameScenario, Priority: loader.priority, Body: minixLoaderBody})
	if _, err := k.SpawnImage(NameScenario, loader.acid); err != nil {
		return nil, fmt.Errorf("bas: spawning loader: %w", err)
	}
	if gateway != nil {
		gw := procOf(NameBACnetGateway)
		k.RegisterImage(minix.Image{
			Name: NameBACnetGateway, Priority: gw.priority, Net: true, Restart: true,
			Body: func(api *minix.API) { gateway(api, minixDial(api)) },
		})
		if _, err := k.SpawnImage(NameBACnetGateway, gw.acid); err != nil {
			return nil, fmt.Errorf("bas: spawning bacnet gateway: %w", err)
		}
	}
	d.Minix, d.kernel = k, minixBinding{}
	return img, nil
}

// minixLoaderBody is the scenario process: "a process loader that forks the
// other five processes, tells kernel each process's ac_id, and loads the
// correct binaries for each of them".
func minixLoaderBody(api *minix.API) {
	for _, name := range forkOrder {
		if _, err := api.Fork2(name, uint32(procOf(name).acid)); err != nil {
			api.Trace("bas", fmt.Sprintf("loader: fork2 %s failed: %v", name, err))
		}
	}
	api.Exit()
}

// minixLookupWait resolves a published name, retrying briefly — processes
// boot in dependency order, but a reincarnated driver may republish a moment
// after a lookup.
func minixLookupWait(api *minix.API, name string) (minix.Endpoint, bool) {
	for i := 0; i < 50; i++ {
		ep, err := api.Lookup(name)
		if err == nil {
			return ep, true
		}
		api.Sleep(time.Millisecond)
	}
	return minix.EndpointNone, false
}

// minixActuatorBody is the heater/alarm driver: "passively wait for commands
// from temperature control process".
func minixActuatorBody(a actuator, dev machine.DeviceID) func(api *minix.API) {
	return func(api *minix.API) {
		for {
			msg, err := api.Receive(minix.EndpointAny)
			if err != nil {
				continue
			}
			ack := minix.NewMessage(int32(core.MsgAck))
			if msg.Type == int32(actuators[a].cmd) {
				if err := api.DevWrite(dev, plant.RegActuate, msg.U32(0)); err != nil {
					ack.PutU32(0, 1)
				}
			} else {
				ack.PutU32(0, 1) // unknown request
			}
			// The commander is rendezvous-blocked on this reply.
			_ = api.Send(msg.Source, ack)
		}
	}
}

// minixSensorBody "periodically samples the environment temperature and
// sends the fresh data using nonblocking send system call to the temperature
// control process".
func minixSensorBody(period time.Duration) func(api *minix.API) {
	return func(api *minix.API) {
		ctrl, ok := minixLookupWait(api, NameTempControl)
		if !ok {
			return
		}
		runSensor(api, period, func(raw uint32) bool {
			msg := minix.NewMessage(int32(core.MsgSensorData))
			msg.PutF64(0, plant.DecodeTemp(raw))
			if err := api.SendNB(ctrl, msg); errors.Is(err, minix.ErrDeadSrcDst) {
				// Controller restarted: refresh the endpoint.
				if fresh, found := minixLookupWait(api, NameTempControl); found {
					ctrl = fresh
				}
			}
			return true
		})
	}
}

// minixControllerBody is the temperature control process main loop as
// narrated in Section IV-A.
func minixControllerBody(cfg ControllerConfig) func(api *minix.API) {
	return func(api *minix.API) {
		ctrl := NewController(cfg)
		heater, okH := minixLookupWait(api, NameHeaterAct)
		alarm, okA := minixLookupWait(api, NameAlarmAct)
		if !okH || !okA {
			api.Trace("bas", "controller: actuators missing, cannot start")
			return
		}
		drivers := [...]minix.Endpoint{actHeater: heater, actAlarm: alarm}
		loop := controlLoop[*minix.API]{Controller: ctrl, traceStatus: true,
			actuate: func(api *minix.API, a actuator, on bool) {
				cmd := minix.NewMessage(int32(actuators[a].cmd))
				if on {
					cmd.PutU32(0, 1)
				}
				retryCommand(api, a, func() error {
					_, err := api.SendRec(drivers[a], cmd)
					if errors.Is(err, minix.ErrDeadSrcDst) {
						// The driver is mid-reincarnation: refresh its
						// endpoint before the next try.
						if fresh, found := minixLookupWait(api, actuators[a].driver); found {
							drivers[a] = fresh
						}
					}
					return err
				})
			}}
		for {
			var msg minix.Message
			var err error
			if cfg.StalenessWindow > 0 {
				msg, err = api.ReceiveTimeout(minix.EndpointAny, cfg.StalenessWindow/2)
			} else {
				msg, err = api.Receive(minix.EndpointAny)
			}
			if err != nil {
				if errors.Is(err, minix.ErrTimeout) {
					loop.watchdog(api)
				}
				continue
			}
			// NOTE (intentional design flaw, see package comment): the
			// sender's identity is never verified — the ACM is the only
			// spoofing defence.
			switch core.MsgType(msg.Type) {
			case core.MsgSensorData:
				loop.onSample(api, msg.F64(0))
			case core.MsgSetpointUpdate:
				ack := minix.NewMessage(int32(core.MsgAck))
				if err := ctrl.SetSetpoint(msg.F64(0)); err != nil {
					ack.PutU32(0, 1)
				}
				_ = api.Send(msg.Source, ack)
			case core.MsgStatusQuery:
				_ = api.Send(msg.Source, encodeStatusAck(ctrl.Snapshot()))
			default:
				// Unknown type: ignore. With the ACM enabled this is
				// unreachable for unauthorized peers.
			}
			// Non-sensor traffic must not starve the watchdog: check
			// staleness after every message, not only on timeouts.
			loop.watchdog(api)
		}
	}
}

// encodeStatusAck packs a Status into the ack payload.
func encodeStatusAck(st Status) minix.Message {
	ack := minix.NewMessage(int32(core.MsgAck))
	for i, w := range st.words() {
		ack.PutU64(8*i, w)
	}
	return ack
}

// decodeStatusAck unpacks encodeStatusAck.
func decodeStatusAck(msg minix.Message) Status {
	var w [4]uint64
	for i := range w {
		w[i] = msg.U64(8 * i)
	}
	return statusFromWords(w)
}

// minixDial reaches the controller over rendezvous IPC; nil if it never
// published its endpoint.
func minixDial(api *minix.API) ControlClient {
	ctrl, ok := minixLookupWait(api, NameTempControl)
	if !ok {
		return nil
	}
	return &minixControlClient{api: api, ctrl: ctrl}
}

// minixControlClient adapts the controller RPC protocol to ControlClient.
type minixControlClient struct {
	api  *minix.API
	ctrl minix.Endpoint
}

var _ ControlClient = (*minixControlClient)(nil)

func (c *minixControlClient) Status() (Status, error) {
	reply, err := c.api.SendRec(c.ctrl, minix.NewMessage(int32(core.MsgStatusQuery)))
	if err != nil {
		return Status{}, err
	}
	return decodeStatusAck(reply), nil
}

func (c *minixControlClient) SetSetpoint(v float64) error {
	msg := minix.NewMessage(int32(core.MsgSetpointUpdate))
	msg.PutF64(0, v)
	reply, err := c.api.SendRec(c.ctrl, msg)
	if err != nil {
		return err
	}
	if reply.U32(0) != 0 {
		return ErrSetpointRange
	}
	return nil
}
