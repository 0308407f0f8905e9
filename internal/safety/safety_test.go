package safety

import (
	"testing"
	"time"

	"mkbas/internal/bas"
	"mkbas/internal/machine"
	"mkbas/internal/plant"
)

func TestHealthyRunHasNoViolations(t *testing.T) {
	cfg := bas.DefaultScenario()
	tb := bas.NewTestbed(cfg)
	defer tb.Machine.Shutdown()
	if _, err := bas.Deploy(bas.PlatformMinix, tb, cfg, bas.DeployOptions{}); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	mon := Attach(tb.Machine.Clock(), tb.Room, DefaultConfig())
	tb.Machine.Run(2 * time.Hour)
	if !mon.Healthy() {
		t.Fatalf("violations on healthy run:\n%v", mon.Violations())
	}
	if mon.Samples() == 0 {
		t.Fatal("monitor never sampled")
	}
}

func TestHeaterFailureWithWorkingAlarmIsRangeOnly(t *testing.T) {
	// Physical fault with an honest controller: the room leaves the range
	// (violation) but the alarm fires, so liveness holds.
	cfg := bas.DefaultScenario()
	cfg.Plant.InitialTemp = 22
	tb := bas.NewTestbed(cfg)
	defer tb.Machine.Shutdown()
	if _, err := bas.Deploy(bas.PlatformMinix, tb, cfg, bas.DeployOptions{}); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	mon := Attach(tb.Machine.Clock(), tb.Room, DefaultConfig())
	tb.Machine.Run(30 * time.Minute)
	tb.Room.FailHeater(true)
	tb.Machine.Run(4 * time.Hour)

	if len(mon.ViolationsOf(PropTempInRange)) == 0 {
		t.Fatal("no range violation despite failed heater")
	}
	if v := mon.ViolationsOf(PropAlarmLiveness); len(v) != 0 {
		t.Fatalf("liveness violations despite working alarm: %v", v)
	}
}

func TestHeaterRecoveryClearsAlarmWithoutHonestyViolation(t *testing.T) {
	// Physical fault with repair: the heater dies long enough to trip the
	// alarm, then comes back. The room reheats, the controller clears the
	// alarm one sample after re-entering the band, and the monitor's
	// recovery-lag slack means honesty never fires — the alarm was truthful
	// throughout.
	cfg := bas.DefaultScenario()
	cfg.Plant.InitialTemp = 22
	tb := bas.NewTestbed(cfg)
	defer tb.Machine.Shutdown()
	if _, err := bas.Deploy(bas.PlatformMinix, tb, cfg, bas.DeployOptions{}); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	mon := Attach(tb.Machine.Clock(), tb.Room, DefaultConfig())
	tb.Machine.Run(30 * time.Minute)
	tb.Room.FailHeater(true)
	tb.Machine.Run(40 * time.Minute) // room decays out of range, alarm trips
	if !tb.Room.AlarmOn() {
		t.Fatalf("alarm not raised during heater outage (temp %.2f)", tb.Room.Temperature())
	}
	tb.Room.FailHeater(false)
	tb.Machine.Run(2 * time.Hour) // reheat, alarm clears
	if tb.Room.AlarmOn() {
		t.Fatalf("alarm still on after recovery (temp %.2f)", tb.Room.Temperature())
	}
	if temp := tb.Room.Temperature(); temp < 21 || temp > 23 {
		t.Fatalf("room did not recover: %.2f", temp)
	}
	if len(mon.ViolationsOf(PropTempInRange)) == 0 {
		t.Error("no range violation despite the outage")
	}
	if v := mon.ViolationsOf(PropAlarmLiveness); len(v) != 0 {
		t.Errorf("liveness violations despite a truthful alarm: %v", v)
	}
	if v := mon.ViolationsOf(PropAlarmHonesty); len(v) != 0 {
		t.Errorf("honesty violations during recovery: %v", v)
	}
}

func TestSuppressedAlarmViolatesLiveness(t *testing.T) {
	// No controller at all: the room drifts out of range and nothing raises
	// the alarm — the signature of a killed control process.
	m := machine.New(machine.Config{})
	defer m.Shutdown()
	m.Engine().SetHandler(idleKernel{})
	cfg := plant.DefaultConfig()
	cfg.InitialTemp = 22
	room := plant.NewRoom(m.Clock(), cfg)
	mon := Attach(m.Clock(), room, DefaultConfig())
	m.Run(4 * time.Hour) // room decays to 15 °C ambient, no alarm ever

	if len(mon.ViolationsOf(PropAlarmLiveness)) == 0 {
		t.Fatal("suppressed alarm not detected")
	}
	if len(mon.ViolationsOf(PropTempInRange)) == 0 {
		t.Fatal("range violation not detected")
	}
}

func TestDishonestAlarmViolatesHonesty(t *testing.T) {
	m := machine.New(machine.Config{})
	defer m.Shutdown()
	m.Engine().SetHandler(idleKernel{})
	cfg := plant.DefaultConfig()
	cfg.InitialTemp = 22
	cfg.HeaterPower = 7e-3 // strong enough to hold 22 at steady state
	room := plant.NewRoom(m.Clock(), cfg)
	room.SetAmbient(22) // room pinned at setpoint
	monCfg := DefaultConfig()
	mon := Attach(m.Clock(), room, monCfg)
	// An attacker blares the alarm while the room is fine.
	m.Clock().After(30*time.Minute, func() {
		if err := m.Bus(); err != nil {
			_ = err
		}
	})
	m.Run(25 * time.Minute)
	forceAlarm(room)
	m.Run(time.Hour)
	if len(mon.ViolationsOf(PropAlarmHonesty)) == 0 {
		t.Fatal("dishonest alarm not detected")
	}
}

// forceAlarm drives the alarm actuator directly, as an attacker commanding
// the alarm driver would.
func forceAlarm(room *plant.Room) {
	// plant exposes actuation only through the bus device; build one.
	dev := struct{ *plant.Room }{room}
	_ = dev
	// Use a one-off bus to reach the register.
	b := machineBusFor(room)
	_ = b.Write(plant.DevAlarm, plant.RegActuate, 1)
}

// machineBusFor attaches the room's devices to a throwaway bus.
func machineBusFor(room *plant.Room) *machine.Bus {
	b := machine.NewBus()
	plantAttachAlarmOnly(b, room)
	return b
}

// plantAttachAlarmOnly mirrors plant.Attach for a second bus; plant.Attach
// panics on duplicate IDs only within one bus, so a fresh bus is fine.
func plantAttachAlarmOnly(b *machine.Bus, room *plant.Room) {
	plant.Attach(b, room)
}

func TestSetpointUpdateMovesTheGoalposts(t *testing.T) {
	m := machine.New(machine.Config{})
	defer m.Shutdown()
	m.Engine().SetHandler(idleKernel{})
	cfg := plant.DefaultConfig()
	cfg.InitialTemp = 25
	room := plant.NewRoom(m.Clock(), cfg)
	room.SetAmbient(25)
	monCfg := DefaultConfig()
	monCfg.SettleTime = time.Minute
	mon := Attach(m.Clock(), room, monCfg) // setpoint 22: room at 25 is out
	m.Clock().After(2*time.Minute, func() { mon.SetSetpoint(25) })
	m.Run(time.Hour)
	early := mon.ViolationsOf(PropTempInRange)
	if len(early) == 0 {
		t.Fatal("no violation before the setpoint update")
	}
	// After the update the room is healthy: last violation must predate it.
	last := early[len(early)-1]
	if last.At > machine.Time(3*time.Minute) {
		t.Fatalf("violation at %v, after monitor learned the new setpoint", last.At)
	}
}

func TestViolationCoalescing(t *testing.T) {
	m := machine.New(machine.Config{})
	defer m.Shutdown()
	m.Engine().SetHandler(idleKernel{})
	cfg := plant.DefaultConfig()
	cfg.InitialTemp = 30
	room := plant.NewRoom(m.Clock(), cfg)
	room.SetAmbient(30) // permanently out of range for setpoint 22
	monCfg := DefaultConfig()
	monCfg.SettleTime = 0
	monCfg.Period = time.Second
	mon := Attach(m.Clock(), room, monCfg)
	m.Run(10 * time.Minute)
	n := len(mon.ViolationsOf(PropTempInRange))
	if n == 0 {
		t.Fatal("no violations")
	}
	if n > 12 {
		t.Fatalf("got %d range violations in 10 minutes; coalescing to ~1/min failed", n)
	}
}

func TestMonitorStop(t *testing.T) {
	m := machine.New(machine.Config{})
	defer m.Shutdown()
	m.Engine().SetHandler(idleKernel{})
	room := plant.NewRoom(m.Clock(), plant.DefaultConfig())
	mon := Attach(m.Clock(), room, DefaultConfig())
	m.Run(time.Minute)
	taken := mon.Samples()
	mon.Stop()
	m.Run(time.Hour)
	if mon.Samples() != taken+1 && mon.Samples() != taken {
		t.Fatalf("samples kept accruing after Stop: %d -> %d", taken, mon.Samples())
	}
}

// idleKernel satisfies machine.TrapHandler for plant-only boards.
type idleKernel struct{}

func (idleKernel) HandleTrap(pid machine.PID, f *machine.Frame) machine.Disposition {
	return machine.DispositionContinue
}
func (idleKernel) OnProcExit(pid machine.PID, info machine.ExitInfo) {}
