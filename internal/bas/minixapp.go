package bas

import (
	"errors"
	"fmt"
	"time"

	"mkbas/internal/bacnet"
	"mkbas/internal/core"
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
const (
	statusFlagHeater = 1 << 0
	statusFlagAlarm  = 1 << 1
)

// MinixDeployment is the booted MINIX platform.
type MinixDeployment struct {
	deploymentBase
	Kernel  *minix.Kernel
	Testbed *Testbed
}

var _ Deployment = (*MinixDeployment)(nil)

// ControllerAlive reports whether the temperature control process still has
// a live endpoint.
func (d *MinixDeployment) ControllerAlive() bool {
	_, err := d.Kernel.EndpointOf(NameTempControl)
	return err == nil
}

// deployMinix is the MINIX backend of the Deploy registry: it boots the
// kernel and starts the scenario loader, which forks the five application
// processes with their ac_ids (Section IV-A). platform selects whether the
// ACM is enforced (PlatformMinix) or ablated (PlatformMinixVanilla).
func deployMinix(platform Platform, tb *Testbed, cfg ScenarioConfig, opts DeployOptions) (*MinixDeployment, error) {
	disableACM := platform == PlatformMinixVanilla
	policy := opts.Policy
	if policy == nil {
		// Optional gateways each need their own ACM row; select the policy
		// before the gate below so the certified matrix is the deployed
		// matrix.
		switch {
		case opts.BACnet.Enabled && opts.TenantAPI:
			policy = core.ScenarioPolicyWithGateways()
		case opts.BACnet.Enabled:
			policy = core.ScenarioPolicyWithGateway()
		case opts.TenantAPI:
			policy = core.ScenarioPolicyWithTenantGateway()
		default:
			policy = core.ScenarioPolicy()
		}
	}
	// Pre-deploy gate: prove the matrix satisfies the scenario's security
	// contract before any process runs. The vanilla ablation skips it —
	// vanilla MINIX enforces nothing, so there is no policy to certify.
	if !opts.SkipPolicyCheck && !disableACM {
		if err := checkDeployPolicy(polcheck.FromPolicy(policy)); err != nil {
			return nil, err
		}
	}
	k, err := minix.Boot(tb.Machine, policy, minix.Config{
		Net:        tb.Net,
		DisableACM: disableACM,
	})
	if err != nil {
		return nil, fmt.Errorf("bas: booting minix: %w", err)
	}
	sup := newDeploySupervision(tb, &cfg, opts)

	webUID := 1000
	if opts.WebRoot {
		webUID = 0
	}
	webBody := opts.MinixWeb
	if webBody == nil {
		webBody = minixWebBody
	}

	k.RegisterImage(minix.Image{
		Name: NameHeaterAct, Priority: 4, Restart: true,
		Devices: []plantDevice{plant.DevHeater},
		Body:    minixActuatorBody(plant.DevHeater, int32(core.MsgHeaterCmd)),
	})
	k.RegisterImage(minix.Image{
		Name: NameAlarmAct, Priority: 4, Restart: true,
		Devices: []plantDevice{plant.DevAlarm},
		Body:    minixActuatorBody(plant.DevAlarm, int32(core.MsgAlarmCmd)),
	})
	k.RegisterImage(minix.Image{
		Name: NameTempControl, Priority: 5,
		Body: minixControllerBody(cfg.Controller),
	})
	k.RegisterImage(minix.Image{
		Name: NameTempSensor, Priority: 6, Restart: true,
		Devices: []plantDevice{plant.DevTempSensor},
		Body:    minixSensorBody(cfg.SamplePeriod),
	})
	k.RegisterImage(minix.Image{
		Name: NameWebInterface, Priority: 7, Net: true, UID: webUID,
		Body: webBody,
	})
	k.RegisterImage(minix.Image{
		Name: NameScenario, Priority: 3,
		Body: minixLoaderBody,
	})
	if _, err := k.SpawnImage(NameScenario, core.ACIDScenario); err != nil {
		return nil, fmt.Errorf("bas: spawning loader: %w", err)
	}
	if opts.BACnet.Enabled {
		// The deployment owns the proxy's anti-replay state; the body closure
		// rebuilds the proxy from it on every (re)spawn, so a gateway
		// reincarnated by RS keeps its nonce floor.
		state := bacnet.NewProxyState()
		k.RegisterImage(minix.Image{
			Name: NameBACnetGateway, Priority: 7, Net: true, Restart: true,
			Body: minixBACnetGatewayBody(opts.BACnet, state, tb.Machine.Obs(), sup),
		})
		if _, err := k.SpawnImage(NameBACnetGateway, core.ACIDBACnetGateway); err != nil {
			return nil, fmt.Errorf("bas: spawning bacnet gateway: %w", err)
		}
	}
	dep := &MinixDeployment{
		deploymentBase: deploymentBase{platform: platform, tb: tb},
		Kernel:         k,
		Testbed:        tb,
	}
	if opts.Monitor {
		// The monitor verifies against the same matrix the gate certified.
		// On the vanilla ablation the kernel enforces nothing, but deliveries
		// are still recorded — the monitor is then the only policy check, the
		// runtime-verification configuration.
		dep.attachMonitor(polcheck.FromPolicy(policy), monitor.Options{Profiler: opts.Profiler})
	}
	return dep, nil
}

// plantDevice aliases the device ID type for terse image declarations.
type plantDevice = machineDeviceID

// minixLoaderBody is the scenario process: "a process loader that forks the
// other five processes, tells kernel each process's ac_id, and loads the
// correct binaries for each of them".
func minixLoaderBody(api *minix.API) {
	order := []struct {
		image string
		acid  core.ACID
	}{
		{NameHeaterAct, core.ACIDHeaterAct},
		{NameAlarmAct, core.ACIDAlarmAct},
		{NameTempControl, core.ACIDTempControl},
		{NameTempSensor, core.ACIDTempSensor},
		{NameWebInterface, core.ACIDWebInterface},
	}
	for _, spec := range order {
		if _, err := api.Fork2(spec.image, uint32(spec.acid)); err != nil {
			api.Trace("bas", fmt.Sprintf("loader: fork2 %s failed: %v", spec.image, err))
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
func minixActuatorBody(dev plantDevice, cmdType int32) func(api *minix.API) {
	return func(api *minix.API) {
		for {
			msg, err := api.Receive(minix.EndpointAny)
			if err != nil {
				continue
			}
			ack := minix.NewMessage(int32(core.MsgAck))
			if msg.Type == cmdType {
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
		for {
			api.Sleep(period)
			raw, err := api.DevRead(plant.DevTempSensor, plant.RegTempMilliC)
			if err != nil {
				continue
			}
			msg := minix.NewMessage(int32(core.MsgSensorData))
			msg.PutF64(0, plant.DecodeTemp(raw))
			if err := api.SendNB(ctrl, msg); errors.Is(err, minix.ErrDeadSrcDst) {
				// Controller restarted: refresh the endpoint.
				if fresh, found := minixLookupWait(api, NameTempControl); found {
					ctrl = fresh
				}
			}
		}
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
		// sendCmd is a bounded retry-with-backoff RPC to an actuator driver:
		// a driver mid-reincarnation answers ErrDeadSrcDst (stale endpoint)
		// or times out, so each attempt refreshes the endpoint and backs off
		// before giving up for this command cycle.
		sendCmd := func(dst *minix.Endpoint, name string, cmdType int32, on bool) {
			cmd := minix.NewMessage(cmdType)
			if on {
				cmd.PutU32(0, 1)
			}
			backoff := 10 * time.Millisecond
			for attempt := 0; attempt < 3; attempt++ {
				_, err := api.SendRec(*dst, cmd)
				if err == nil {
					return
				}
				if errors.Is(err, minix.ErrDeadSrcDst) {
					if fresh, found := minixLookupWait(api, name); found {
						*dst = fresh
					}
				}
				api.Sleep(backoff)
				backoff *= 2
			}
			api.Trace("bas", "controller: giving up on command to "+name)
		}
		// watchdog runs the staleness check and pushes failsafe decisions to
		// the actuators.
		watchdog := func() {
			heaterChanged, alarmChanged := ctrl.OnTick(api.Now())
			if heaterChanged || alarmChanged {
				api.Trace("bas", "controller: failsafe engaged, sensor readings stale")
			}
			if heaterChanged {
				sendCmd(&heater, NameHeaterAct, int32(core.MsgHeaterCmd), ctrl.HeaterOn())
			}
			if alarmChanged {
				sendCmd(&alarm, NameAlarmAct, int32(core.MsgAlarmCmd), ctrl.AlarmOn())
			}
		}
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
					watchdog()
				}
				continue
			}
			// NOTE (intentional design flaw, see package comment): the
			// sender's identity is never verified — the ACM is the only
			// spoofing defence.
			switch core.MsgType(msg.Type) {
			case core.MsgSensorData:
				heaterChanged, alarmChanged := ctrl.OnSample(api.Now(), msg.F64(0))
				if heaterChanged {
					sendCmd(&heater, NameHeaterAct, int32(core.MsgHeaterCmd), ctrl.HeaterOn())
				}
				if alarmChanged {
					sendCmd(&alarm, NameAlarmAct, int32(core.MsgAlarmCmd), ctrl.AlarmOn())
				}
				if ctrl.Snapshot().Samples%60 == 0 || heaterChanged || alarmChanged {
					api.Trace("bas", ctrl.Snapshot().String())
				}
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
			watchdog()
		}
	}
}

// encodeStatusAck packs a Status into the ack payload.
func encodeStatusAck(st Status) minix.Message {
	ack := minix.NewMessage(int32(core.MsgAck))
	ack.PutF64(0, st.Temp)
	ack.PutF64(8, st.Setpoint)
	var flags uint32
	if st.HeaterOn {
		flags |= statusFlagHeater
	}
	if st.AlarmOn {
		flags |= statusFlagAlarm
	}
	ack.PutU32(16, flags)
	ack.PutI64(24, st.Samples)
	return ack
}

// decodeStatusAck unpacks encodeStatusAck.
func decodeStatusAck(msg minix.Message) Status {
	flags := msg.U32(16)
	return Status{
		Temp:     msg.F64(0),
		Setpoint: msg.F64(8),
		HeaterOn: flags&statusFlagHeater != 0,
		AlarmOn:  flags&statusFlagAlarm != 0,
		Samples:  msg.I64(24),
	}
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

// minixWebBody is the legitimate web interface: an HTTP server on port 8080
// relaying administrator requests to the controller over IPC.
func minixWebBody(api *minix.API) {
	ctrl, ok := minixLookupWait(api, NameTempControl)
	if !ok {
		return
	}
	l, err := api.NetListen(WebPort)
	if err != nil {
		api.Trace("bas", fmt.Sprintf("web: listen failed: %v", err))
		return
	}
	ServeWeb(netListener{net: api, l: l}, &minixControlClient{api: api, ctrl: ctrl}, nil)
}
