package bas

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"time"
	"unicode"

	"mkbas/internal/bacnet"
	"mkbas/internal/decfmt"
	"mkbas/internal/linuxsim"
	"mkbas/internal/machine"
	"mkbas/internal/plant"
	"mkbas/internal/polcheck"
)

// POSIX message-queue names — "the scenario process in Linux spawns all
// other processes and creates 6 message queues that are needed for various
// communications" (Section IV-C).
const (
	QSensorData = "/sensor-data"
	QHeaterCmd  = "/heater-cmd"
	QAlarmCmd   = "/alarm-cmd"
	QWebReq     = "/web-req"
	QWebResp    = "/web-resp"
	QAuditLog   = "/audit-log"
)

// Wire format on Linux: newline-less text commands, e.g. "temp 21.50",
// "heater on", "setpoint 23", "status".

// linuxQueues is the deployment's queue table, shared with the static DAC
// model and the fault adapter. A queue's creator is its DAC owner:
// actuators create their command queues, the controller everything else.
// Its consumer is the process-level destination of a message on it; the
// audit log has none. hardenedMode is its mode under the unique accounts;
// the same-account default makes every queue 0o600.
var linuxQueues = [...]struct {
	name, creator, consumer string
	hardenedMode            linuxsim.Mode
}{
	{QSensorData, NameTempControl, NameTempControl, 0o620}, // control group may write (sensor)
	{QHeaterCmd, NameHeaterAct, NameHeaterAct, 0o620},      // control group may write (controller)
	{QAlarmCmd, NameAlarmAct, NameAlarmAct, 0o620},
	{QWebReq, NameTempControl, NameTempControl, 0o602},   // web (other) may submit requests
	{QWebResp, NameTempControl, NameWebInterface, 0o604}, // web (other) may read responses
	{QAuditLog, NameTempControl, "", 0o600},
}

// linuxQueueMode is the named queue's mode.
func linuxQueueMode(name string, hardened bool) linuxsim.Mode {
	if hardened {
		for _, q := range linuxQueues {
			if q.name == name {
				return q.hardenedMode
			}
		}
	}
	return 0o600
}

// Unix accounts. The paper's default deployment runs every process under
// one account, baseUID:baseGID; the hardened variant gives each process its
// own, which the paper notes as the (insufficient) DAC mitigation.
const (
	baseUID = 1000
	baseGID = 1000
)

// account pairs a uid and gid.
type account struct{ uid, gid int }

// linuxHardenedAccounts is the hardened deployment's account table, shared
// with the static DAC model (LinuxScenarioDAC) and the monitor graph so the
// analyzer sees exactly what boots. The loader, sensor, controller and
// drivers share the control-plane group 50. The web interface and both
// gateways sit outside it in group 60: the 0o602/0o604 web-queue modes
// already admit them as "other" writers and readers, so hosting a gateway
// needs no queue table change.
var linuxHardenedAccounts = map[string]account{
	NameScenario:      {100, 50},
	NameTempSensor:    {101, 50},
	NameTempControl:   {102, 50},
	NameHeaterAct:     {103, 50},
	NameAlarmAct:      {104, 50},
	NameWebInterface:  {105, 60},
	NameBACnetGateway: {106, 60},
	NameTenantGateway: {107, 60},
}

// linuxAccount is the account the named process runs under.
func linuxAccount(name string, hardened bool) account {
	if !hardened {
		return account{baseUID, baseGID}
	}
	return linuxHardenedAccounts[name]
}

// LinuxDeployment is the booted Linux platform.
type LinuxDeployment struct {
	deploymentBase
	Kernel  *linuxsim.Kernel
	Testbed *Testbed
}

var _ Deployment = (*LinuxDeployment)(nil)

// WebPID returns the unix pid of the (possibly compromised) web interface,
// for the GrantRoot escalation step.
func (d *LinuxDeployment) WebPID() (int, error) {
	return d.Kernel.PIDOf(NameWebInterface)
}

// ControllerAlive reports whether the temperature control process still has
// a pid.
func (d *LinuxDeployment) ControllerAlive() bool {
	_, err := d.Kernel.PIDOf(NameTempControl)
	return err == nil
}

// deployLinux is the Linux backend of the Deploy registry. platform selects
// the same-account default (PlatformLinux) or the unique-account hardened
// configuration (PlatformLinuxHardened).
func deployLinux(platform Platform, tb *Testbed, cfg ScenarioConfig, opts DeployOptions) (Deployment, error) {
	hardened := platform == PlatformLinuxHardened
	// Pre-deploy gate: the hardened configuration claims the scenario's
	// security contract, so prove its DAC model satisfies it before boot.
	// The same-account default deploys no per-process policy and skips the
	// gate (see DeployOptions.SkipPolicyCheck).
	if hardened && !opts.SkipPolicyCheck {
		if err := linuxContract(false, false).verdict; err != nil {
			return nil, err
		}
	}
	k := linuxsim.Boot(tb.Machine, linuxsim.Config{Net: tb.Net})
	sup := newDeploySupervision(tb, &cfg, opts)
	webBody := opts.LinuxWeb
	if webBody == nil {
		// The Linux deployment exports board metrics over its own web
		// interface, the way a real Linux controller would run node_exporter.
		metrics := tb.Machine.Obs().Metrics()
		webBody = func(api *linuxsim.API) { webInterfaceBody(api, linuxDial(api, "web"), metrics) }
	}
	for _, r := range scenarioRoles {
		acct := linuxAccount(r.name, hardened)
		img := linuxsim.Image{Name: r.name, Priority: r.priority, UID: acct.uid, GID: acct.gid, Body: webBody}
		switch r.name {
		case NameHeaterAct:
			img.Body = linuxActuatorBody(actHeater, r.device, hardened)
		case NameAlarmAct:
			img.Body = linuxActuatorBody(actAlarm, r.device, hardened)
		case NameTempControl:
			img.Body = linuxControllerBody(cfg.Controller, hardened)
		case NameTempSensor:
			img.Body = linuxSensorBody(cfg.SamplePeriod)
		}
		k.RegisterImage(img)
		if r.device != "" {
			// Each driver's account owns its device file.
			k.RegisterDeviceFile(r.device, acct.uid, acct.gid, 0o600)
		}
	}

	if hardened {
		if opts.Recovery {
			// Recovery on Linux is a root supervisord-style daemon, only
			// offered with the hardened configuration. The same-account
			// default never gets one: the paper's deployment has no
			// supervisor, which is the gap the chaos experiment (E10)
			// measures.
			k.RegisterImage(linuxsim.Image{
				Name: NameSupervisor, Priority: 2, UID: 0, GID: 0,
				Body: linuxSupervisorBody,
			})
			if _, err := k.SpawnImage(NameSupervisor); err != nil {
				return nil, fmt.Errorf("bas: spawning %s: %w", NameSupervisor, err)
			}
		}
		// Unique accounts cannot be reached through fork (children inherit
		// credentials), so the deployment spawns each process directly.
		for _, r := range scenarioRoles {
			if _, err := k.SpawnImage(r.name); err != nil {
				return nil, fmt.Errorf("bas: spawning %s: %w", r.name, err)
			}
		}
	} else {
		k.RegisterImage(linuxsim.Image{
			Name: NameScenario, Priority: 3, UID: baseUID, GID: baseGID,
			Body: func(api *linuxsim.API) {
				for _, r := range scenarioRoles {
					if _, err := api.Fork(r.name); err != nil {
						api.Trace("bas", fmt.Sprintf("loader: fork %s failed: %v", r.name, err))
					}
				}
				api.Exit()
			},
		})
		if _, err := k.SpawnImage(NameScenario); err != nil {
			return nil, fmt.Errorf("bas: spawning loader: %w", err)
		}
	}
	if opts.BACnet.Enabled {
		// The deployment owns the proxy's anti-replay state so a respawned
		// gateway resumes its nonce floor. Spawned directly (not through the
		// loader) on both DAC configurations: unique accounts cannot be
		// reached through fork anyway.
		acct := linuxAccount(NameBACnetGateway, hardened)
		state, board := bacnet.NewProxyState(), tb.Machine.Obs()
		k.RegisterImage(linuxsim.Image{
			Name: NameBACnetGateway, Priority: gatewayPriority, UID: acct.uid, GID: acct.gid,
			Body: func(api *linuxsim.API) {
				bacnetGatewayBody(api, linuxDial(api, "gateway"), opts.BACnet, state, board, sup)
			},
		})
		if _, err := k.SpawnImage(NameBACnetGateway); err != nil {
			return nil, fmt.Errorf("bas: spawning bacnet gateway: %w", err)
		}
	}
	dep := &LinuxDeployment{
		deploymentBase: deploymentBase{platform: platform, tb: tb},
		Kernel:         k,
		Testbed:        tb,
	}
	if opts.Monitor {
		dep.attachMonitor(linuxContract(opts.BACnet.Enabled, opts.TenantAPI), opts.Profiler)
	}
	return dep, nil
}

// linuxContractGraph builds the hardened unique-account contract, the
// deployment's intended least-privilege shape. Without gateways it is the
// graph the hardened gate certifies, and it is the certified graph the
// online monitor verifies against on BOTH Linux configurations. The
// same-account default deploys no per-process DAC policy, so there is no
// enforced policy to mirror — the monitor checks the contract instead,
// which is exactly how it flags a compromised web process doing what
// same-account DAC cannot forbid (writing /heater-cmd directly). When the
// BACnet gateway is deployed it joins the model with its hardened account;
// like the web interface it sits outside the control group, so the
// 0o602/0o604 web-queue modes already derive its legitimate edges. The
// tenant API gateway subject joins the same way, under its own account.
func linuxContractGraph(withGateway, withTenant bool) *polcheck.Graph {
	model := LinuxScenarioDAC(true, false)
	if withGateway {
		model.Subjects = append(model.Subjects, linuxSubject(NameBACnetGateway, true))
	}
	if withTenant {
		model.Subjects = append(model.Subjects, linuxSubject(NameTenantGateway, true))
	}
	return polcheck.FromDAC(model)
}

// linuxOpenRetry opens a queue, retrying while it does not exist yet
// (boot-order race between readers that create and writers that open).
func linuxOpenRetry(api *linuxsim.API, name string, flags linuxsim.MQOpenFlags) (int32, error) {
	for i := 0; i < 100; i++ {
		fd, err := api.MQOpen(name, flags)
		if err == nil {
			return fd, nil
		}
		if !errors.Is(err, linuxsim.ErrNoEnt) {
			return 0, err
		}
		api.Sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("bas: queue %s never appeared", name)
}

// linuxActuatorBody creates its command queue and passively applies
// commands ("<verb> on|off").
func linuxActuatorBody(a actuator, dev machine.DeviceID, hardened bool) func(api *linuxsim.API) {
	queue, verb := actuators[a].queue, actuators[a].verb
	return func(api *linuxsim.API) {
		fd, err := api.MQOpen(queue, linuxsim.MQOpenFlags{Create: true, Read: true, Mode: linuxQueueMode(queue, hardened)})
		if err != nil {
			api.Trace("bas", fmt.Sprintf("%s driver: open: %v", verb, err))
			return
		}
		for {
			msg, err := api.MQReceive(fd)
			if err != nil {
				return
			}
			name, state, ok := twoFields(msg.Data)
			if !ok || string(name) != verb {
				continue
			}
			var value uint32
			if string(state) == "on" {
				value = 1
			}
			if err := api.DevWrite(dev, plant.RegActuate, value); err != nil {
				api.Trace("bas", fmt.Sprintf("%s driver: devwrite: %v", verb, err))
			}
		}
	}
}

// linuxSensorBody samples the room and pushes readings.
func linuxSensorBody(period time.Duration) func(api *linuxsim.API) {
	return func(api *linuxsim.API) {
		fd, err := linuxOpenRetry(api, QSensorData, linuxsim.MQOpenFlags{Write: true})
		if err != nil {
			api.Trace("bas", fmt.Sprintf("sensor: %v", err))
			return
		}
		// line is rebuilt in place each tick; MQSend copies the payload, so
		// the steady-state sample path allocates nothing.
		var line []byte
		runSensor(api, period, func(raw uint32) bool {
			line = append(line[:0], "temp "...)
			line = plant.AppendTempFixed4(line, raw)
			return api.MQSend(fd, line, 0) == nil
		})
	}
}

// linuxControllerBody is the control loop: blocking-read sensor data, then
// poll the web request queue, exactly the paper's loop shape ("Then the
// process will check if there are pending messages from web interface
// process for updating new setpoint. At the end of the while loop,
// environment information will be written in a log").
func linuxControllerBody(cfg ControllerConfig, hardened bool) func(api *linuxsim.API) {
	return func(api *linuxsim.API) {
		ctrl := NewController(cfg)
		open := func(queue string, flags linuxsim.MQOpenFlags) (int32, error) {
			flags.Create, flags.Mode = true, linuxQueueMode(queue, hardened)
			return api.MQOpen(queue, flags)
		}
		sensorFD, err := open(QSensorData, linuxsim.MQOpenFlags{Read: true})
		if err != nil {
			return
		}
		webReqFD, err := open(QWebReq, linuxsim.MQOpenFlags{Read: true, NonBlock: true})
		if err != nil {
			return
		}
		webRespFD, err := open(QWebResp, linuxsim.MQOpenFlags{Write: true})
		if err != nil {
			return
		}
		auditFD, err := open(QAuditLog, linuxsim.MQOpenFlags{Write: true, NonBlock: true, MaxMsgs: 64})
		if err != nil {
			return
		}
		var cmdFDs [2]int32
		for a, act := range actuators {
			if cmdFDs[a], err = linuxOpenRetry(api, act.queue, linuxsim.MQOpenFlags{Write: true}); err != nil {
				return
			}
		}
		// Each actuator's two command lines are built once: MQSend copies
		// the payload.
		var cmdLines [len(actuators)][2][]byte
		for a, act := range actuators {
			cmdLines[a] = [2][]byte{[]byte(act.verb + " off"), []byte(act.verb + " on")}
		}
		loop := controlLoop[*linuxsim.API]{Controller: ctrl,
			actuate: func(api *linuxsim.API, a actuator, on bool) {
				line := cmdLines[a][0]
				if on {
					line = cmdLines[a][1]
				}
				_ = api.MQSend(cmdFDs[a], line, 1)
			}}
		// drainWeb answers pending web requests. Each response is built in
		// resp, reused across requests (MQSend copies the payload).
		var resp []byte
		drainWeb := func() {
			for {
				req, rerr := api.MQReceive(webReqFD)
				if rerr != nil {
					break
				}
				resp = handleLinuxWebReq(resp[:0], ctrl, req.Data)
				_ = api.MQSend(webRespFD, resp, 0)
			}
		}
		// auditLine is reused across iterations: the status line is rebuilt
		// in place each tick and MQSend copies the payload, so the steady
		// state log write allocates nothing.
		var auditLine []byte
		for {
			var msg linuxsim.MQMsg
			var err error
			if cfg.StalenessWindow > 0 {
				msg, err = api.MQReceiveTimeout(sensorFD, cfg.StalenessWindow/2)
			} else {
				msg, err = api.MQReceive(sensorFD)
			}
			if err != nil {
				if !errors.Is(err, linuxsim.ErrTimeout) {
					return
				}
				// Sensor silence: run the watchdog, and keep the web UI
				// responsive while the sensor path is down.
				loop.watchdog(api)
				drainWeb()
				continue
			}
			if name, val, ok := twoFields(msg.Data); ok && string(name) == "temp" {
				temp, perr := strconv.ParseFloat(string(val), 64)
				if perr == nil {
					// Design flaw preserved: no sender authentication — any
					// process that can write the queue is believed.
					loop.onSample(api, temp)
				}
			}
			// Non-sensor traffic must not starve the watchdog.
			loop.watchdog(api)
			drainWeb()
			// Environment log; drop lines when the log is full.
			auditLine = ctrl.Snapshot().AppendText(auditLine[:0])
			_ = api.MQSend(auditFD, auditLine, 0)
		}
	}
}

// linuxSupervisorPeriod paces the supervisor's respawn sweep.
const linuxSupervisorPeriod = time.Second

// linuxSupervisorBody is the supervisord-style process supervisor: a root
// daemon that respawns any scenario process found dead. Only the hardened
// deployment runs one — the paper's default Linux deployment has no
// supervisor, which is what the chaos experiment (E10) measures.
func linuxSupervisorBody(api *linuxsim.API) {
	for {
		api.Sleep(linuxSupervisorPeriod)
		for _, r := range scenarioRoles {
			_, err := api.Respawn(r.name)
			if err != nil && !errors.Is(err, linuxsim.ErrExist) {
				api.Trace("supervisord", fmt.Sprintf("respawn %s: %v", r.name, err))
			}
		}
	}
}

// handleLinuxWebReq processes one text request from the web queue and
// appends the response line to out.
func handleLinuxWebReq(out []byte, ctrl *Controller, req []byte) []byte {
	verb, arg, pair := twoFields(req)
	switch {
	case string(verb) == "status" && len(arg) == 0:
		st := ctrl.Snapshot()
		return appendExactSetpoint(st.AppendText(out), st.Setpoint)
	case string(verb) == "setpoint" && pair:
		v, err := strconv.ParseFloat(string(arg), 64)
		if err != nil {
			return append(out, "err bad value"...)
		}
		if err := ctrl.SetSetpoint(v); err != nil {
			return append(out, "err range"...)
		}
		return append(out, "ok"...)
	default:
		return append(out, "err unknown request"...)
	}
}

// appendExactSetpoint completes a status reply. The status line carries
// two decimals, but a BACnet client may write any setpoint in range: one
// the line cannot carry exactly is repeated at full precision, so every
// platform reads back the setpoint its controller holds. parseStatusLine
// keeps a key's last value.
func appendExactSetpoint(out []byte, v float64) []byte {
	var buf [32]byte
	if two, err := strconv.ParseFloat(string(decfmt.AppendFixed(buf[:0], v, 2)), 64); err == nil && two == v {
		return out
	}
	return strconv.AppendFloat(append(out, " setpoint="...), v, 'g', -1, 64)
}

// linuxDial reaches the controller over the web request/response queue
// pair, the only IPC the DAC modes grant a non-control-group account; who
// names the caller in trace lines. The web interface and the BACnet gateway
// share the pair; in building deployments the web interface is idle, so
// responses never interleave. nil if either queue never appears.
func linuxDial(api *linuxsim.API, who string) ControlClient {
	reqFD, err := linuxOpenRetry(api, QWebReq, linuxsim.MQOpenFlags{Write: true})
	if err != nil {
		api.Trace("bas", who+": "+err.Error())
		return nil
	}
	respFD, err := linuxOpenRetry(api, QWebResp, linuxsim.MQOpenFlags{Read: true})
	if err != nil {
		api.Trace("bas", who+": "+err.Error())
		return nil
	}
	return &linuxControlClient{api: api, reqFD: reqFD, respFD: respFD}
}

// linuxControlClient adapts the request/response queue pair to
// ControlClient. req is the request line, rebuilt in place per request:
// MQSend copies the payload.
type linuxControlClient struct {
	api    *linuxsim.API
	reqFD  int32
	respFD int32
	req    []byte
}

var _ ControlClient = (*linuxControlClient)(nil)

// roundTrip sends req and returns the response line. The bytes are the
// received message's payload, valid until this process's next queue
// receive.
func (c *linuxControlClient) roundTrip(req []byte) ([]byte, error) {
	if err := c.api.MQSend(c.reqFD, req, 0); err != nil {
		return nil, err
	}
	resp, err := c.api.MQReceive(c.respFD)
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

func (c *linuxControlClient) Status() (Status, error) {
	c.req = append(c.req[:0], "status"...)
	line, err := c.roundTrip(c.req)
	if err != nil {
		return Status{}, err
	}
	return parseStatusLine(line)
}

// SetSetpoint sends the shortest text that parses back to v, so the
// controller range-checks the value the caller gave, as on the other
// kernels.
func (c *linuxControlClient) SetSetpoint(v float64) error {
	c.req = strconv.AppendFloat(append(c.req[:0], "setpoint "...), v, 'g', -1, 64)
	resp, err := c.roundTrip(c.req)
	if err != nil {
		return err
	}
	if string(resp) != "ok" {
		return ErrSetpointRange
	}
	return nil
}

// parseStatusLine decodes Status.AppendText's line back into a Status. It
// walks the line's fields in place rather than collecting them, so a poll's
// status decode allocates nothing.
func parseStatusLine(line []byte) (Status, error) {
	var st Status
	for field, rest := cutField(line); len(field) > 0; field, rest = cutField(rest) {
		eq := bytes.IndexByte(field, '=')
		if eq < 0 {
			continue
		}
		key, val := field[:eq], field[eq+1:]
		switch string(key) {
		case "temp":
			st.Temp, _ = strconv.ParseFloat(string(val), 64)
		case "setpoint":
			st.Setpoint, _ = strconv.ParseFloat(string(val), 64)
		case "heater":
			st.HeaterOn = string(val) == "on"
		case "alarm":
			st.AlarmOn = string(val) == "on"
		case "samples":
			st.Samples, _ = strconv.ParseInt(string(val), 10, 64)
		}
	}
	if st.Setpoint == 0 {
		return st, fmt.Errorf("bas: malformed status line %q", line)
	}
	return st, nil
}

// cutField cuts the first field off s and returns it with the rest of s. A
// field is what strings.Fields yields: a maximal run of runes that are not
// unicode.IsSpace. The field is empty only when s holds no more fields.
func cutField(s []byte) (field, rest []byte) {
	s = bytes.TrimLeftFunc(s, unicode.IsSpace)
	if i := bytes.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, nil
}

// twoFields splits s into its two fields, reporting false when s does not
// hold exactly two — the "<verb> <argument>" shape of every Linux command
// and sample line.
func twoFields(s []byte) (first, second []byte, ok bool) {
	first, rest := cutField(s)
	second, rest = cutField(rest)
	extra, _ := cutField(rest)
	return first, second, len(second) > 0 && len(extra) == 0
}
