package bas

import (
	"math"
	"time"

	"mkbas/internal/bacnet"
	"mkbas/internal/core"
	"mkbas/internal/machine"
	"mkbas/internal/obs"
	"mkbas/internal/plant"
	"mkbas/internal/vnet"
)

// This file holds what the scenario's processes do on every kernel: the
// role table each binding deploys from, the process port the shared bodies
// run over, and those bodies. A binding supplies only what is a kernel
// property: its receive loops, its wire format, and how one process reaches
// another.

// scenarioRole is one of the scenario's five processes.
type scenarioRole struct {
	name     string
	priority int
	acid     core.ACID
	// device is the room device the process drives; empty for the
	// controller and the web interface.
	device machine.DeviceID
}

// scenarioRoles lists the five processes in the loader's fork order. MINIX
// and Linux register and start their images from it, and seL4 takes its
// component priorities from it.
var scenarioRoles = [...]scenarioRole{
	{NameHeaterAct, 4, core.ACIDHeaterAct, plant.DevHeater},
	{NameAlarmAct, 4, core.ACIDAlarmAct, plant.DevAlarm},
	{NameTempControl, 5, core.ACIDTempControl, ""},
	{NameTempSensor, 6, core.ACIDTempSensor, plant.DevTempSensor},
	{NameWebInterface, 7, core.ACIDWebInterface, ""},
}

// roleOf returns the named role's table entry.
func roleOf(name string) scenarioRole {
	for _, r := range scenarioRoles {
		if r.name == name {
			return r
		}
	}
	panic("bas: no scenario role " + name)
}

// gatewayPriority is the BACnet gateway's priority on every kernel, the web
// interface's.
const gatewayPriority = 7

// actuator indexes the controller's two command targets.
type actuator int

const (
	actHeater actuator = iota
	actAlarm
)

// actuators describes each command target: its driver process, the name
// the seL4 uses-interface and the Linux text command give it, its MINIX
// command type, and its Linux command queue.
var actuators = [...]struct {
	driver, verb string
	cmd          core.MsgType
	queue        string
}{
	actHeater: {NameHeaterAct, "heater", core.MsgHeaterCmd, QHeaterCmd},
	actAlarm:  {NameAlarmAct, "alarm", core.MsgAlarmCmd, QAlarmCmd},
}

// processPort is the trap surface every kernel's process API shares
// (*minix.API, *camkes.Runtime, *linuxsim.API). The bodies in this file run
// over it, so each of their traps is the same trap on every kernel.
type processPort interface {
	Now() machine.Time
	Sleep(d time.Duration)
	DevRead(dev machine.DeviceID, reg uint32) (uint32, error)
	DevWrite(dev machine.DeviceID, reg uint32, value uint32) error
	Trace(tag, text string)
	NetListen(port vnet.Port) (int32, error)
	NetAccept(listener int32) (int32, error)
	NetRead(conn int32, max int) ([]byte, error)
	NetWrite(conn int32, data []byte) error
	NetClose(conn int32) error
}

// runSensor is the sensor driver's loop: every period, read the room sensor
// and hand the raw reading to deliver, the kernel's path to the controller.
// A failed read skips the period; it returns once deliver reports that path
// gone.
func runSensor(p processPort, period time.Duration, deliver func(raw uint32) bool) {
	for {
		p.Sleep(period)
		raw, err := p.DevRead(plant.DevTempSensor, plant.RegTempMilliC)
		if err != nil {
			continue
		}
		if !deliver(raw) {
			return
		}
	}
}

// controlLoop is the controller's reactions to a sample and to a watchdog
// tick. The kernel binding supplies actuate, which carries one command to a
// driver, and calls the reactions from its own receive loop. P is the
// kernel's process API; seL4 runs the reactions on several threads, each
// with its own.
type controlLoop[P processPort] struct {
	*Controller
	actuate func(p P, a actuator, on bool)
	// traceStatus logs the status line every 60th sample and on every
	// command change. Linux writes an audit line per sample instead.
	traceStatus bool
	// line is the traced status line, rebuilt in place; only the trace's
	// own string is new per line.
	line []byte
}

// onSample runs the control law on one reading and pushes the commands that
// changed.
func (c *controlLoop[P]) onSample(p P, temp float64) {
	heaterChanged, alarmChanged := c.OnSample(p.Now(), temp)
	c.push(p, heaterChanged, alarmChanged)
	if st := c.Snapshot(); c.traceStatus && (st.Samples%60 == 0 || heaterChanged || alarmChanged) {
		c.line = st.AppendText(c.line[:0])
		p.Trace("bas", string(c.line))
	}
}

// watchdog runs the staleness check and pushes failsafe decisions to the
// actuators.
func (c *controlLoop[P]) watchdog(p P) {
	heaterChanged, alarmChanged := c.OnTick(p.Now())
	if heaterChanged || alarmChanged {
		p.Trace("bas", "controller: failsafe engaged, sensor readings stale")
	}
	c.push(p, heaterChanged, alarmChanged)
}

func (c *controlLoop[P]) push(p P, heaterChanged, alarmChanged bool) {
	if heaterChanged {
		c.actuate(p, actHeater, c.HeaterOn())
	}
	if alarmChanged {
		c.actuate(p, actAlarm, c.AlarmOn())
	}
}

// retryCommand is the controller's bounded retry for a command RPC: a driver
// mid-restart, or a call lost to an injected fault, gets three tries with a
// doubling backoff before this command cycle is abandoned.
func retryCommand(p processPort, a actuator, try func() error) {
	backoff := 10 * time.Millisecond
	for attempt := 0; attempt < 3; attempt++ {
		if try() == nil {
			return
		}
		p.Sleep(backoff)
		backoff *= 2
	}
	p.Trace("bas", "controller: giving up on command to "+actuators[a].driver)
}

// Status flags in the binary status codec.
const (
	statusFlagHeater = 1 << 0
	statusFlagAlarm  = 1 << 1
)

// words encodes the status as the microkernels carry it: temp and setpoint
// as float64 bits, the heater/alarm flags, and the sample count. MINIX puts
// the words at payload offsets 0, 8, 16 and 24; seL4 returns them as the
// first four words of the mgmt reply.
func (s Status) words() [4]uint64 {
	var flags uint64
	if s.HeaterOn {
		flags |= statusFlagHeater
	}
	if s.AlarmOn {
		flags |= statusFlagAlarm
	}
	return [4]uint64{math.Float64bits(s.Temp), math.Float64bits(s.Setpoint), flags, uint64(s.Samples)}
}

// statusFromWords decodes Status.words.
func statusFromWords(w [4]uint64) Status {
	return Status{
		Temp:     math.Float64frombits(w[0]),
		Setpoint: math.Float64frombits(w[1]),
		HeaterOn: w[2]&statusFlagHeater != 0,
		AlarmOn:  w[2]&statusFlagAlarm != 0,
		Samples:  int64(w[3]),
	}
}

// serveOn binds port and hands each accepted connection to serve until the
// listener is torn down; who names the process in the trace line of a
// refused bind.
func serveOn(p processPort, port vnet.Port, who string, serve func(conn netConn)) {
	l, err := p.NetListen(port)
	if err != nil {
		p.Trace("bas", who+": listen failed: "+err.Error())
		return
	}
	for {
		conn, err := p.NetAccept(l)
		if err != nil {
			return
		}
		serve(netConn{net: p, fd: conn})
	}
}

// webInterfaceBody is the legitimate web interface: HTTP on WebPort against
// ctrl, the kernel's path to the controller (nil if it was never reached).
func webInterfaceBody(p processPort, ctrl ControlClient, metrics MetricsSource) {
	if ctrl != nil {
		serveOn(p, WebPort, "web", func(conn netConn) { serveConn(conn, ctrl, metrics) })
	}
}

// bacnetGatewayBody serves the (optionally proxied) field-bus protocol on
// BACnetPort against ctrl, the kernel's path to the controller (nil if it
// was never reached).
func bacnetGatewayBody(p processPort, ctrl ControlClient, bopts BACnetOptions, state *bacnet.ProxyState, board *obs.Board, sup *Supervision) {
	if ctrl != nil {
		gw := newBACnetGateway(bopts, ctrl, state, board, sup)
		serveOn(p, BACnetPort, "gateway", gw.serveConn)
	}
}
