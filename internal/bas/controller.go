// Package bas implements the paper's application layer: the five processes
// of the temperature-control scenario (Fig. 2), written once as
// platform-neutral logic and bound to each of the three simulated operating
// systems (security-enhanced MINIX 3, seL4/CAmkES, Linux).
//
// Keeping one control-law implementation is deliberate: when the attack
// experiments show different outcomes across platforms, the only variable is
// the kernel underneath, exactly as in the paper's comparison.
//
// Note what the controller does NOT do: it never checks who sent it a
// message. The paper argues the kernel should protect even such naive
// processes ("even if the temperature control process has design flaws, like
// failing to check the message type and sender's identity, the kernel will
// audit each round of communication"), so the shared logic deliberately has
// that design flaw.
package bas

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"mkbas/internal/decfmt"
	"mkbas/internal/machine"
)

// ControllerConfig parameterises the temperature control law.
type ControllerConfig struct {
	// Setpoint is the initial desired temperature, °C.
	Setpoint float64
	// MinSetpoint/MaxSetpoint bound administrator adjustments ("adjust the
	// desired room temperature within this range").
	MinSetpoint float64
	MaxSetpoint float64
	// Hysteresis is the bang-bang dead band: heater on below
	// setpoint-hysteresis, off above setpoint+hysteresis.
	Hysteresis float64
	// AlarmTolerance is how far from the setpoint the room may drift before
	// it counts as out of range.
	AlarmTolerance float64
	// AlarmDelay is how long the room may stay out of range before the
	// alarm trips ("if the controller fails to achieve the desired
	// temperature within certain time interval (e.g., 5 minutes), the alarm
	// will be triggered").
	AlarmDelay time.Duration
	// StalenessWindow is the sensor watchdog: with no fresh sample for this
	// long the controller enters failsafe (heater off, alarm on) rather than
	// keep actuating on stale data. Zero disables the watchdog. The window
	// must comfortably exceed the platforms' driver-restart MTTR so a
	// reincarnated sensor never trips it.
	StalenessWindow time.Duration
	// Supervision, when non-nil, is the room's supervisory-traffic watchdog
	// (building deployments only): while it reports degraded the controller
	// pins its setpoint to the last committed supervisory value, so a room
	// cut off from its BMS runs autonomously on trustworthy state instead of
	// whatever a late unverified write left behind. Never marshalled.
	Supervision *Supervision `json:"-"`
}

// DefaultControllerConfig matches the scenario narrative: 22 °C setpoint
// adjustable within 15..30, quarter-degree dead band, 2 °C tolerance, 5
// minute alarm delay.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{
		Setpoint:        22,
		MinSetpoint:     15,
		MaxSetpoint:     30,
		Hysteresis:      0.25,
		AlarmTolerance:  2.0,
		AlarmDelay:      5 * time.Minute,
		StalenessWindow: 10 * time.Second,
	}
}

// ErrSetpointRange reports a setpoint outside the permitted range.
var ErrSetpointRange = errors.New("bas: setpoint outside permitted range")

// Status is a snapshot of the controller state, served to the web interface.
type Status struct {
	Temp     float64
	Setpoint float64
	HeaterOn bool
	AlarmOn  bool
	Samples  int64
}

// String renders the status line the web interface returns.
func (s Status) String() string {
	return string(s.AppendText(nil))
}

// AppendText appends the status line to buf and returns the extended slice.
// Bindings that emit a status line every control tick (the Linux audit log)
// use this with a reused buffer so the hot path stays allocation-free; the
// output is byte-identical to String.
func (s Status) AppendText(buf []byte) []byte {
	buf = append(buf, "temp="...)
	buf = decfmt.AppendFixed(buf, s.Temp, 2)
	buf = append(buf, " setpoint="...)
	buf = decfmt.AppendFixed(buf, s.Setpoint, 2)
	buf = append(buf, " heater="...)
	buf = append(buf, onOff(s.HeaterOn)...)
	buf = append(buf, " alarm="...)
	buf = append(buf, onOff(s.AlarmOn)...)
	buf = append(buf, " samples="...)
	return strconv.AppendInt(buf, s.Samples, 10)
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// Controller is the temperature-control state machine. It is pure logic:
// platform bindings feed it samples and carry out its actuator decisions.
type Controller struct {
	cfg      ControllerConfig
	setpoint float64

	heaterOn bool
	alarmOn  bool
	lastTemp float64
	samples  int64

	outSince    machine.Time
	outOfRange  bool
	everSampled bool

	lastSampleAt machine.Time
	failsafe     bool
}

// NewController builds a controller.
func NewController(cfg ControllerConfig) *Controller {
	return &Controller{cfg: cfg, setpoint: cfg.Setpoint}
}

// OnSample processes one sensor reading at virtual instant now. It returns
// whether the heater or alarm command changed; the caller pushes changed
// commands to the actuator drivers.
func (c *Controller) OnSample(now machine.Time, temp float64) (heaterChanged, alarmChanged bool) {
	c.lastTemp = temp
	c.samples++
	c.everSampled = true
	c.lastSampleAt = now

	// A fresh reading ends failsafe: the decisions below are the exit
	// transition, computed from real data again.
	c.failsafe = false

	// Bang-bang heater control with hysteresis.
	wantHeater := c.heaterOn
	switch {
	case temp < c.setpoint-c.cfg.Hysteresis:
		wantHeater = true
	case temp > c.setpoint+c.cfg.Hysteresis:
		wantHeater = false
	}
	heaterChanged = wantHeater != c.heaterOn
	c.heaterOn = wantHeater

	// Alarm timer: trip after AlarmDelay continuously out of range.
	inRange := temp >= c.setpoint-c.cfg.AlarmTolerance && temp <= c.setpoint+c.cfg.AlarmTolerance
	wantAlarm := c.alarmOn
	if inRange {
		c.outOfRange = false
		wantAlarm = false
	} else {
		if !c.outOfRange {
			c.outOfRange = true
			c.outSince = now
		}
		if now.Sub(c.outSince) >= c.cfg.AlarmDelay {
			wantAlarm = true
		}
	}
	alarmChanged = wantAlarm != c.alarmOn
	c.alarmOn = wantAlarm
	return heaterChanged, alarmChanged
}

// OnTick runs the sensor-staleness watchdog. Platform bindings call it when
// a sample period elapses without a reading. If the last sample is older
// than the staleness window the controller enters failsafe: heater off (a
// blind controller must not keep heating) and alarm on (operators must hear
// that the loop is broken). The next OnSample exits failsafe.
func (c *Controller) OnTick(now machine.Time) (heaterChanged, alarmChanged bool) {
	// Supervisory watchdog first: degraded mode is independent of sensor
	// staleness (the sensor is local; the BMS is across the bus).
	if v, degraded := c.cfg.Supervision.Check(now); degraded {
		c.setpoint = v
	}
	if c.cfg.StalenessWindow <= 0 || !c.everSampled || c.failsafe {
		return false, false
	}
	if now.Sub(c.lastSampleAt) < c.cfg.StalenessWindow {
		return false, false
	}
	c.failsafe = true
	heaterChanged = c.heaterOn
	c.heaterOn = false
	alarmChanged = !c.alarmOn
	c.alarmOn = true
	return heaterChanged, alarmChanged
}

// SetSetpoint applies an administrator update, clamped to the permitted
// range. Out-of-range requests are rejected, not clamped, so a compromised
// web interface cannot silently push the room to an extreme. The test is
// written as "not inside" so NaN, which compares false both ways, is
// rejected too: a NaN setpoint would keep the heater on forever.
func (c *Controller) SetSetpoint(v float64) error {
	if !(v >= c.cfg.MinSetpoint && v <= c.cfg.MaxSetpoint) {
		return fmt.Errorf("%w: %s not in [%s, %s]", ErrSetpointRange, decfmt.AppendFixed(nil, v, 2),
			decfmt.AppendFixed(nil, c.cfg.MinSetpoint, 2), decfmt.AppendFixed(nil, c.cfg.MaxSetpoint, 2))
	}
	c.setpoint = v
	return nil
}

// HeaterOn reports the current heater command.
func (c *Controller) HeaterOn() bool { return c.heaterOn }

// AlarmOn reports the current alarm command.
func (c *Controller) AlarmOn() bool { return c.alarmOn }

// Setpoint reports the active setpoint.
func (c *Controller) Setpoint() float64 { return c.setpoint }

// Snapshot returns the current status.
func (c *Controller) Snapshot() Status {
	return Status{
		Temp:     c.lastTemp,
		Setpoint: c.setpoint,
		HeaterOn: c.heaterOn,
		AlarmOn:  c.alarmOn,
		Samples:  c.samples,
	}
}
