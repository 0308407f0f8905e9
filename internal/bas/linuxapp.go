package bas

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"mkbas/internal/aadl"
	"mkbas/internal/decfmt"
	"mkbas/internal/httpmini"
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

// linuxPortQueues binds the model's in-ports to the kernel's queue names:
// each port's request queue and, for the controller's management port, the
// reply queue its clients read. This is wire detail, as the seL4 interface
// names are; each queue's owner and mode are compiled from the model.
var linuxPortQueues = map[aadl.PortRef][2]string{
	{Component: NameTempControl, Port: IfaceSensorIn}: {QSensorData},
	{Component: NameHeaterAct, Port: IfaceCmd}:        {QHeaterCmd},
	{Component: NameAlarmAct, Port: IfaceCmd}:         {QAlarmCmd},
	{Component: NameTempControl, Port: IfaceMgmt}:     {QWebReq, QWebResp},
}

// The paper's default deployment runs every process under one account,
// baseUID:baseGID; the hardened variant runs each under the model's
// Linux_Account, which the paper notes as the (insufficient) DAC
// mitigation.
const (
	baseUID = 1000
	baseGID = 1000
)

// linuxDAC is a Linux board's DAC policy compiled from the model and bound
// to the kernel's names: the model the analyzer reads, each queue's mode,
// and the process that reads each queue, the destination fault plans
// address.
type linuxDAC struct {
	*aadl.DAC
	model    polcheck.DACModel
	mode     map[string]linuxsim.Mode
	consumer map[string]string
}

// bindLinuxDAC binds a compiled DAC policy to the kernel's queue names and
// device files.
func bindLinuxDAC(d *aadl.DAC) *linuxDAC {
	b := &linuxDAC{DAC: d, model: polcheck.DACModel{Subjects: slices.Clone(d.Subjects)},
		mode: make(map[string]linuxsim.Mode), consumer: make(map[string]string)}
	queue := func(name, consumer string, owner polcheck.DACSubject, mode linuxsim.Mode) {
		b.model.Queues = append(b.model.Queues, polcheck.DACObject{Name: name, OwnerUID: owner.UID, OwnerGID: owner.GID, Mode: mode})
		b.mode[name], b.consumer[name] = mode, consumer
	}
	for _, q := range d.Queues {
		names, ok := linuxPortQueues[q.Port]
		if !ok {
			panic("bas: no Linux queue for in-port " + q.Port.String())
		}
		queue(names[0], q.Port.Component, q.Owner, q.Mode)
		if names[1] != "" {
			// Every client reads the reply queue; fault plans address it
			// as its first client's.
			queue(names[1], q.Peers[0], q.Owner, q.ReplyMode)
		}
	}
	// The controller's private environment log: no peer, so owner only.
	queue(QAuditLog, "", d.Subject(NameTempControl), 0o600)
	for _, name := range forkOrder {
		// Each driver's account owns its device files.
		for _, dev := range procOf(name).devices {
			a := d.Subject(name)
			b.model.Devices = append(b.model.Devices, polcheck.DACObject{
				Name: "/dev/" + string(dev), OwnerUID: a.UID, OwnerGID: a.GID, Mode: 0o600,
			})
		}
	}
	return b
}

// linuxBinding is the Linux binding of a deployment. The kernel's fault
// filter is keyed by queue name, while fault plans target process names, so
// the binding holds the board's DAC policy to translate each queue to its
// consuming process. Restarts are spawns beyond the first.
type linuxBinding struct{ dac *linuxDAC }

func (linuxBinding) crashProcess(d *Deployment, name string) error {
	return d.Linux.CrashProcess(name)
}

func (b linuxBinding) setIPCFault(d *Deployment, fn func(src, dst string) (bool, time.Duration)) {
	if fn == nil {
		d.Linux.SetIPCFault(nil)
		return
	}
	d.Linux.SetIPCFault(func(src, queue string) (bool, time.Duration) {
		return fn(src, b.dac.consumerOf(queue))
	})
}

// controllerAlive reports whether the temperature control process still has
// a pid.
func (linuxBinding) controllerAlive(d *Deployment) bool {
	_, err := d.Linux.PIDOf(NameTempControl)
	return err == nil
}

// restarts reports respawns (spawns beyond the first) across the scenario
// processes.
func (linuxBinding) restarts(d *Deployment) int {
	n := 0
	for _, name := range forkOrder {
		if c := d.Linux.SpawnCount(name); c > 1 {
			n += c - 1
		}
	}
	return n
}

// consumerOf maps a queue to the process that reads it, the process-level
// destination of a message on it, as the board's DAC policy names it. A
// queue without a consumer (the audit log) maps to its own name, which no
// plan targets.
func (b *linuxDAC) consumerOf(queue string) string {
	if consumer := b.consumer[queue]; consumer != "" {
		return consumer
	}
	return queue
}

// deployLinux is the Linux backend of the Deploy registry. The deployment's
// platform selects the same-account default (PlatformLinux) or the
// unique-account hardened configuration (PlatformLinuxHardened).
func deployLinux(d *Deployment, cfg ScenarioConfig, opts DeployOptions, gateway gatewayBody) (*image, error) {
	tb, hardened := d.tb, d.platform == PlatformLinuxHardened
	a := linuxDefault(opts.BACnet.Enabled, opts.TenantAPI)
	dac := a.dac[hardened]
	// Pre-deploy gate: the hardened configuration claims the scenario's
	// security contract, so prove the DAC model of the deployed shape
	// satisfies it before boot. The same-account default deploys no
	// per-process policy and skips the gate (see
	// DeployOptions.SkipPolicyCheck).
	if hardened && !opts.SkipPolicyCheck && a.verdict != nil {
		return nil, a.verdict
	}
	k := linuxsim.Boot(tb.Machine, linuxsim.Config{Net: tb.Net})
	webBody := opts.LinuxWeb
	if webBody == nil {
		// The Linux deployment exports board metrics over its own web
		// interface, the way a real Linux controller would run node_exporter.
		metrics := tb.Machine.Obs().Metrics()
		webBody = func(api *linuxsim.API) { webInterfaceBody(api, linuxDial(api, "web"), metrics) }
	}
	for _, name := range forkOrder {
		f, acct := procOf(name), dac.Subject(name)
		img := linuxsim.Image{Name: name, Priority: f.priority, UID: acct.UID, GID: acct.GID, Body: webBody}
		switch name {
		case NameHeaterAct:
			img.Body = linuxActuatorBody(actHeater, f.devices[0], dac)
		case NameAlarmAct:
			img.Body = linuxActuatorBody(actAlarm, f.devices[0], dac)
		case NameTempControl:
			img.Body = linuxControllerBody(cfg.Controller, dac)
		case NameTempSensor:
			img.Body = linuxSensorBody(cfg.SamplePeriod)
		}
		k.RegisterImage(img)
	}
	for _, dev := range dac.model.Devices {
		k.RegisterDeviceFile(machine.DeviceID(strings.TrimPrefix(dev.Name, "/dev/")), dev.OwnerUID, dev.OwnerGID, dev.Mode)
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
		for _, name := range forkOrder {
			if _, err := k.SpawnImage(name); err != nil {
				return nil, fmt.Errorf("bas: spawning %s: %w", name, err)
			}
		}
	} else {
		loader := dac.Subject(NameScenario)
		k.RegisterImage(linuxsim.Image{
			Name: NameScenario, Priority: procOf(NameScenario).priority, UID: loader.UID, GID: loader.GID,
			Body: func(api *linuxsim.API) {
				for _, name := range forkOrder {
					if _, err := api.Fork(name); err != nil {
						api.Trace("bas", fmt.Sprintf("loader: fork %s failed: %v", name, err))
					}
				}
				api.Exit()
			},
		})
		if _, err := k.SpawnImage(NameScenario); err != nil {
			return nil, fmt.Errorf("bas: spawning loader: %w", err)
		}
	}
	if gateway != nil {
		// Spawned directly (not through the loader) on both DAC
		// configurations: unique accounts cannot be reached through fork
		// anyway.
		acct := dac.Subject(NameBACnetGateway)
		k.RegisterImage(linuxsim.Image{
			Name: NameBACnetGateway, Priority: procOf(NameBACnetGateway).priority, UID: acct.UID, GID: acct.GID,
			Body: func(api *linuxsim.API) { gateway(api, linuxDial(api, "gateway")) },
		})
		if _, err := k.SpawnImage(NameBACnetGateway); err != nil {
			return nil, fmt.Errorf("bas: spawning bacnet gateway: %w", err)
		}
	}
	d.Linux, d.kernel = k, linuxBinding{dac}
	return &a.image, nil
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
func linuxActuatorBody(a actuator, dev machine.DeviceID, dac *linuxDAC) func(api *linuxsim.API) {
	queue, verb := actuators[a].queue, actuators[a].verb
	return func(api *linuxsim.API) {
		fd, err := api.MQOpen(queue, linuxsim.MQOpenFlags{Create: true, Read: true, Mode: dac.mode[queue]})
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
func linuxControllerBody(cfg ControllerConfig, dac *linuxDAC) func(api *linuxsim.API) {
	return func(api *linuxsim.API) {
		ctrl := NewController(cfg)
		open := func(queue string, flags linuxsim.MQOpenFlags) (int32, error) {
			flags.Create, flags.Mode = true, dac.mode[queue]
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
		for _, name := range forkOrder {
			_, err := api.Respawn(name)
			if err != nil && !errors.Is(err, linuxsim.ErrExist) {
				api.Trace("supervisord", fmt.Sprintf("respawn %s: %v", name, err))
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
	for field, rest := httpmini.CutField(line); len(field) > 0; field, rest = httpmini.CutField(rest) {
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

// twoFields splits s into its two fields, reporting false when s does not
// hold exactly two — the "<verb> <argument>" shape of every Linux command
// and sample line.
func twoFields(s []byte) (first, second []byte, ok bool) {
	first, rest := httpmini.CutField(s)
	second, rest = httpmini.CutField(rest)
	extra, _ := httpmini.CutField(rest)
	return first, second, len(second) > 0 && len(extra) == 0
}
