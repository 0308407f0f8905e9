package plant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mkbas/internal/machine"
)

func newRoom(cfg Config) (*machine.Clock, *Room) {
	c := machine.NewClock()
	return c, NewRoom(c, cfg)
}

func TestRoomCoolsTowardAmbient(t *testing.T) {
	m := machine.New(machine.Config{})
	room := NewRoom(m.Clock(), Config{InitialTemp: 25, Ambient: 15, LeakRate: 1e-3, HeaterPower: 1.0 / 60})
	m.Engine().SetHandler(nopKernel{})
	m.Clock().After(4*time.Hour, func() {})
	m.Run(4 * time.Hour)
	got := room.Temperature()
	if got > 15.1 {
		t.Fatalf("after 4h temp = %.3f, want ~15 (cooled to ambient)", got)
	}
	if got < 14.99 {
		t.Fatalf("temp %.3f undershot ambient", got)
	}
}

func TestHeaterRaisesSteadyState(t *testing.T) {
	m := machine.New(machine.Config{})
	cfg := Config{InitialTemp: 15, Ambient: 15, LeakRate: 1e-3, HeaterPower: 1.0 / 60}
	room := NewRoom(m.Clock(), cfg)
	m.Engine().SetHandler(nopKernel{})
	room.setHeater(true)
	m.Clock().After(8*time.Hour, func() {})
	m.Run(8 * time.Hour)
	want := cfg.Ambient + cfg.HeaterPower/cfg.LeakRate // 15 + 16.67
	if math.Abs(room.Temperature()-want) > 0.1 {
		t.Fatalf("steady state = %.3f, want %.3f", room.Temperature(), want)
	}
}

func TestClosedFormMatchesEuler(t *testing.T) {
	cfg := Config{InitialTemp: 18, Ambient: 15, LeakRate: 2e-3, HeaterPower: 1.0 / 60}
	m := machine.New(machine.Config{})
	room := NewRoom(m.Clock(), cfg)
	m.Engine().SetHandler(nopKernel{})
	room.setHeater(true)

	// Reference: fine-step explicit Euler over the same horizon.
	temp := cfg.InitialTemp
	const dt = 0.01
	horizon := 20 * time.Minute
	for s := 0.0; s < horizon.Seconds(); s += dt {
		temp += dt * (-cfg.LeakRate*(temp-cfg.Ambient) + cfg.HeaterPower)
	}

	m.Clock().After(horizon, func() {})
	m.Run(horizon)
	if math.Abs(room.Temperature()-temp) > 0.01 {
		t.Fatalf("closed form %.4f vs euler %.4f", room.Temperature(), temp)
	}
}

func TestLazyIntegrationIsSplitInvariant(t *testing.T) {
	// Observing the room mid-flight must not change the trajectory.
	run := func(observe bool) float64 {
		m := machine.New(machine.Config{})
		room := NewRoom(m.Clock(), DefaultConfig())
		m.Engine().SetHandler(nopKernel{})
		room.setHeater(true)
		if observe {
			for i := 1; i <= 9; i++ {
				m.Clock().After(time.Duration(i)*time.Minute, func() { _ = room.Temperature() })
			}
		}
		m.Clock().After(10*time.Minute, func() {})
		m.Run(10 * time.Minute)
		return room.Temperature()
	}
	a, b := run(false), run(true)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("trajectory depends on observation: %.12f vs %.12f", a, b)
	}
}

func TestFailedHeaterProducesNoHeat(t *testing.T) {
	m := machine.New(machine.Config{})
	room := NewRoom(m.Clock(), Config{InitialTemp: 15, Ambient: 15, LeakRate: 1e-3, HeaterPower: 1.0 / 60})
	m.Engine().SetHandler(nopKernel{})
	room.setHeater(true)
	room.FailHeater(true)
	m.Clock().After(time.Hour, func() {})
	m.Run(time.Hour)
	if got := room.Temperature(); math.Abs(got-15) > 1e-6 {
		t.Fatalf("failed heater heated the room to %.3f", got)
	}
	if !room.HeaterOn() {
		t.Fatal("heater command state lost during failure")
	}
}

func TestHistoryRecordsTransitions(t *testing.T) {
	m := machine.New(machine.Config{})
	room := NewRoom(m.Clock(), DefaultConfig())
	room.setHeater(true)
	room.setHeater(true) // duplicate: no event
	room.setAlarm(true)
	room.setHeater(false)
	h := room.History()
	want := []EventKind{EventHeaterOn, EventAlarmOn, EventHeaterOff}
	if len(h) != len(want) {
		t.Fatalf("history = %v, want kinds %v", h, want)
	}
	for i, k := range want {
		if h[i].Kind != k {
			t.Fatalf("history[%d] = %v, want %v", i, h[i].Kind, k)
		}
	}
}

// TestHistoryKeepsNewest pins the bounded history: past HistoryCap
// transitions the oldest are dropped, the rest come back oldest first, and
// Transitions still counts every one.
func TestHistoryKeepsNewest(t *testing.T) {
	m := machine.New(machine.Config{})
	room := NewRoom(m.Clock(), DefaultConfig())
	const total = HistoryCap + 300
	m.Engine().SetHandler(nopKernel{})
	at := make([]machine.Time, total)
	for i := range at {
		m.Clock().After(time.Duration(i+1)*time.Second, func() {
			at[i] = m.Clock().Now()
			room.setHeater(i%2 == 0)
		})
	}
	m.Run(total * time.Second)
	if got := room.Transitions(); got != total {
		t.Fatalf("Transitions = %d, want %d", got, total)
	}
	h := room.History()
	if len(h) != HistoryCap {
		t.Fatalf("history holds %d, want %d", len(h), HistoryCap)
	}
	for i, ev := range h {
		n := total - HistoryCap + i // index of the transition ev must be
		want := EventHeaterOff
		if n%2 == 0 {
			want = EventHeaterOn
		}
		if ev.At != at[n] || ev.Kind != want {
			t.Fatalf("history[%d] = %v at %v, want %v at %v", i, ev.Kind, ev.At, want, at[n])
		}
	}
}

func TestSensorNoiseDeterministic(t *testing.T) {
	read := func() []float64 {
		m := machine.New(machine.Config{})
		cfg := DefaultConfig()
		cfg.SensorNoise = 0.05
		cfg.Rand = rand.New(rand.NewSource(7))
		room := NewRoom(m.Clock(), cfg)
		var out []float64
		for i := 0; i < 5; i++ {
			out = append(out, room.readSensor())
		}
		return out
	}
	a, b := read(), read()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("noise not deterministic: %v vs %v", a, b)
		}
	}
	// Noise must actually perturb readings.
	allEqual := true
	for i := 1; i < len(a); i++ {
		if a[i] != a[0] {
			allEqual = false
		}
	}
	if allEqual {
		t.Fatal("noisy sensor returned identical readings")
	}
}

func TestTempEncodingRoundTrip(t *testing.T) {
	f := func(milli int32) bool {
		// Constrain to physically plausible range.
		c := float64(milli%100000) / 1000
		return math.Abs(DecodeTemp(EncodeTemp(c))-c) < 0.001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTempEncodingNegative(t *testing.T) {
	for _, c := range []float64{-40, -0.5, 0, 0.5, 21.37, 85} {
		if got := DecodeTemp(EncodeTemp(c)); math.Abs(got-c) > 0.001 {
			t.Fatalf("round trip %.3f -> %.3f", c, got)
		}
	}
}

func TestDevicesOnBus(t *testing.T) {
	m := machine.New(machine.Config{})
	room := Attach(m.Bus(), NewRoom(m.Clock(), DefaultConfig()))

	raw, err := m.Bus().Read(DevTempSensor, RegTempMilliC)
	if err != nil {
		t.Fatalf("sensor read: %v", err)
	}
	if got := DecodeTemp(raw); math.Abs(got-18) > 0.001 {
		t.Fatalf("sensor = %.3f, want 18", got)
	}

	if err := m.Bus().Write(DevHeater, RegActuate, 1); err != nil {
		t.Fatalf("heater write: %v", err)
	}
	if !room.HeaterOn() {
		t.Fatal("heater did not turn on via bus")
	}
	v, err := m.Bus().Read(DevHeater, RegActuate)
	if err != nil || v != 1 {
		t.Fatalf("heater readback = %d,%v want 1", v, err)
	}

	if err := m.Bus().Write(DevAlarm, RegActuate, 1); err != nil {
		t.Fatalf("alarm write: %v", err)
	}
	if !room.AlarmOn() {
		t.Fatal("alarm did not turn on via bus")
	}

	count, err := m.Bus().Read(DevTempSensor, RegSampleCount)
	if err != nil || count != 1 {
		t.Fatalf("sample count = %d,%v want 1", count, err)
	}

	// Sensor registers ignore writes.
	if err := m.Bus().Write(DevTempSensor, RegTempMilliC, 12345); err != nil {
		t.Fatalf("sensor write: %v", err)
	}
}

func TestSetAmbientDisturbance(t *testing.T) {
	m := machine.New(machine.Config{})
	room := NewRoom(m.Clock(), Config{InitialTemp: 20, Ambient: 20, LeakRate: 5e-3, HeaterPower: 1.0 / 60})
	m.Engine().SetHandler(nopKernel{})
	m.Clock().After(30*time.Minute, func() { room.SetAmbient(5) })
	m.Clock().After(5*time.Hour, func() {})
	m.Run(5 * time.Hour)
	if got := room.Temperature(); math.Abs(got-5) > 0.2 {
		t.Fatalf("after cold snap temp = %.3f, want ~5", got)
	}
}

func TestTimeConstant(t *testing.T) {
	_, room := newRoom(DefaultConfig())
	if got := room.TimeConstant(); got != 1000*time.Second {
		t.Fatalf("time constant = %v, want 1000s", got)
	}
}

// nopKernel satisfies machine.TrapHandler for plant-only simulations that
// spawn no processes.
type nopKernel struct{}

func (nopKernel) HandleTrap(pid machine.PID, f *machine.Frame) machine.Disposition {
	return machine.DispositionContinue
}
func (nopKernel) OnProcExit(pid machine.PID, info machine.ExitInfo) {}
