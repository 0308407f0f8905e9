// Package plant simulates the physical side of the paper's testbed (Fig. 4):
// a room with a thermal process, a BMP180-style temperature sensor, a heater
// actuator, and an alarm LED.
//
// The room follows a first-order thermal model
//
//	dT/dt = -k (T - T_ambient) + P·u
//
// where u ∈ {0,1} is the heater command and P is the heater's heating rate.
// Between events the inputs are constant, so the model is integrated with the
// exact closed-form solution rather than numerically; simulations are both
// deterministic and cheap regardless of how rarely the plant is observed.
//
// The plant is what makes the paper's safety argument observable: when a
// compromised process spoofs sensor data or kills the controller, the room
// temperature physically diverges and the safety monitors in internal/safety
// record the violation.
package plant

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mkbas/internal/machine"
)

// Config parameterises a room.
type Config struct {
	// InitialTemp is the room temperature at boot, in °C.
	InitialTemp float64
	// Ambient is the outside temperature the room leaks toward, in °C.
	Ambient float64
	// LeakRate is k in the model, in 1/s. Typical rooms: 1e-3..1e-2.
	LeakRate float64
	// HeaterPower is P in the model, in °C/s of heating when on.
	HeaterPower float64
	// SensorNoise is the standard deviation of sensor read noise, in °C.
	// Zero disables noise.
	SensorNoise float64
	// Rand supplies deterministic noise; required when SensorNoise > 0.
	Rand *rand.Rand
}

// DefaultConfig models a small lab room: 15 °C ambient, time constant of
// about 17 minutes, and a heater that can raise the room ~1 °C/min.
func DefaultConfig() Config {
	return Config{
		InitialTemp: 18,
		Ambient:     15,
		LeakRate:    1e-3,
		HeaterPower: 1.0 / 60,
	}
}

// Room is the simulated thermal process plus its attached devices.
type Room struct {
	clock *machine.Clock
	cfg   Config

	temp      float64 // at lastSync
	lastSync  machine.Time
	heaterOn  bool
	heaterBad bool // failure injection: commands accepted but no heat
	alarmOn   bool

	// Sensor fault injection: a stuck sensor repeats one frozen value; a
	// drifting sensor accumulates a linear bias from driftSince onward.
	sensorStuck    bool
	sensorStuckVal float64
	driftRate      float64 // °C/s of accumulated bias, 0 = healthy
	driftSince     machine.Time

	// readHook observes every sensor read (the fault campaign's MTTR probe).
	readHook func(at machine.Time, value float64, faulted bool)

	// history keeps the newest HistoryCap actuator transitions for
	// experiment assertions: a ring once full, with histHead its oldest
	// entry. transitions counts every transition ever recorded.
	history     []Event
	histHead    int
	transitions int64
}

// HistoryCap bounds the actuator transitions a room keeps, like every other
// board log: a run of any length holds at most this many.
const HistoryCap = 1024

// EventKind labels a plant history entry.
type EventKind int

// Plant event kinds.
const (
	EventHeaterOn EventKind = iota + 1
	EventHeaterOff
	EventAlarmOn
	EventAlarmOff
	EventHeaterFailed
	EventHeaterRepaired
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventHeaterOn:
		return "heater-on"
	case EventHeaterOff:
		return "heater-off"
	case EventAlarmOn:
		return "alarm-on"
	case EventAlarmOff:
		return "alarm-off"
	case EventHeaterFailed:
		return "heater-failed"
	case EventHeaterRepaired:
		return "heater-repaired"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one actuator transition with its instant and the room temperature
// at that instant.
type Event struct {
	At   machine.Time
	Kind EventKind
	Temp float64
}

// NewRoom builds a room over the board clock.
func NewRoom(clock *machine.Clock, cfg Config) *Room {
	if cfg.LeakRate <= 0 {
		panic("plant: LeakRate must be positive")
	}
	if cfg.SensorNoise > 0 && cfg.Rand == nil {
		panic("plant: SensorNoise requires a Rand source")
	}
	return &Room{
		clock:    clock,
		cfg:      cfg,
		temp:     cfg.InitialTemp,
		lastSync: clock.Now(),
	}
}

// sync integrates the model from lastSync to now with constant inputs.
func (r *Room) sync() {
	now := r.clock.Now()
	dt := now.Sub(r.lastSync).Seconds()
	if dt <= 0 {
		return
	}
	u := 0.0
	if r.heaterOn && !r.heaterBad {
		u = 1
	}
	// Steady state for constant input, exact exponential approach to it.
	tInf := r.cfg.Ambient + r.cfg.HeaterPower*u/r.cfg.LeakRate
	r.temp = tInf + (r.temp-tInf)*math.Exp(-r.cfg.LeakRate*dt)
	r.lastSync = now
}

// Temperature returns the true room temperature, in °C, at the current
// virtual instant. This is ground truth for safety monitors; processes read
// through the sensor device instead.
func (r *Room) Temperature() float64 {
	r.sync()
	return r.temp
}

// SetAmbient changes the outside temperature (disturbance injection).
func (r *Room) SetAmbient(ambient float64) {
	r.sync()
	r.cfg.Ambient = ambient
}

// Ambient returns the current outside temperature.
func (r *Room) Ambient() float64 { return r.cfg.Ambient }

// HeaterOn reports the commanded heater state.
func (r *Room) HeaterOn() bool { return r.heaterOn }

// AlarmOn reports the alarm actuator state.
func (r *Room) AlarmOn() bool { return r.alarmOn }

// setHeater applies a heater command at the current instant.
func (r *Room) setHeater(on bool) {
	if on == r.heaterOn {
		return
	}
	r.sync()
	r.heaterOn = on
	kind := EventHeaterOff
	if on {
		kind = EventHeaterOn
	}
	r.record(kind)
}

// setAlarm applies an alarm command at the current instant.
func (r *Room) setAlarm(on bool) {
	if on == r.alarmOn {
		return
	}
	r.sync()
	r.alarmOn = on
	kind := EventAlarmOff
	if on {
		kind = EventAlarmOn
	}
	r.record(kind)
}

// FailHeater injects or repairs a heater fault. While failed, commands are
// accepted (the driver sees success) but produce no heat — the scenario that
// must eventually trip the alarm.
func (r *Room) FailHeater(failed bool) {
	if failed == r.heaterBad {
		return
	}
	r.sync()
	r.heaterBad = failed
	kind := EventHeaterRepaired
	if failed {
		kind = EventHeaterFailed
	}
	r.record(kind)
}

// HeaterFailed reports whether the heater fault is active.
func (r *Room) HeaterFailed() bool { return r.heaterBad }

// record appends one transition at the current instant, overwriting the
// oldest once HistoryCap are kept. The ring is allocated whole on the first
// transition, so it is never copied to grow and leaves no garbage.
func (r *Room) record(kind EventKind) {
	ev := Event{At: r.clock.Now(), Kind: kind, Temp: r.temp}
	if r.history == nil {
		r.history = make([]Event, 0, HistoryCap)
	}
	if len(r.history) < HistoryCap {
		r.history = append(r.history, ev)
	} else {
		r.history[r.histHead] = ev
		r.histHead = (r.histHead + 1) % HistoryCap
	}
	r.transitions++
}

// History returns a copy of the newest actuator transitions, oldest first:
// all of them until HistoryCap have happened, then the last HistoryCap.
// Transitions counts the ones no longer kept too.
func (r *Room) History() []Event {
	out := make([]Event, 0, len(r.history))
	out = append(out, r.history[r.histHead:]...)
	return append(out, r.history[:r.histHead]...)
}

// Transitions returns how many actuator transitions the room has had since
// boot, including those History no longer keeps.
func (r *Room) Transitions() int64 { return r.transitions }

// StickSensor freezes the sensor at value; Unstick releases it. While stuck
// the device reports the frozen value regardless of the true temperature.
func (r *Room) StickSensor(value float64) {
	r.sensorStuck = true
	r.sensorStuckVal = value
}

// UnstickSensor releases a stuck sensor.
func (r *Room) UnstickSensor() { r.sensorStuck = false }

// SetSensorDrift starts (rate != 0) or stops (rate == 0) a linear measurement
// bias of rate °C/s, accumulating from the current instant.
func (r *Room) SetSensorDrift(rate float64) {
	r.driftRate = rate
	r.driftSince = r.clock.Now()
}

// SetSensorReadHook registers fn to observe every sensor device read with the
// reported value and whether a sensor fault distorted it. One hook only; nil
// clears it. The fault campaign uses this as its recovery (MTTR) probe.
func (r *Room) SetSensorReadHook(fn func(at machine.Time, value float64, faulted bool)) {
	r.readHook = fn
}

// readSensor returns the noisy measured temperature in °C, subject to any
// injected stuck-at or drift fault.
func (r *Room) readSensor() float64 {
	r.sync()
	t := r.temp
	if r.cfg.SensorNoise > 0 {
		t += r.cfg.Rand.NormFloat64() * r.cfg.SensorNoise
	}
	faulted := false
	if r.driftRate != 0 {
		t += r.driftRate * r.clock.Now().Sub(r.driftSince).Seconds()
		faulted = true
	}
	if r.sensorStuck {
		t = r.sensorStuckVal
		faulted = true
	}
	if r.readHook != nil {
		r.readHook(r.clock.Now(), t, faulted)
	}
	return t
}

// TimeConstant returns the thermal time constant 1/k.
func (r *Room) TimeConstant() time.Duration {
	return time.Duration(float64(time.Second) / r.cfg.LeakRate)
}
