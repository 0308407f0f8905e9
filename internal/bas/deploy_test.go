package bas

import (
	"strings"
	"testing"
	"time"

	"mkbas/internal/bacnet"
)

// deployment abstracts the platforms for the shared closed-loop tests
// (experiment E3: the Fig. 2 scenario behaves identically everywhere when
// nothing is under attack).
type deployment struct {
	name   string
	deploy func(tb *Testbed, cfg ScenarioConfig) error
}

func allPlatforms() []deployment {
	platforms := []Platform{PlatformMinix, PlatformSel4, PlatformLinux, PlatformLinuxHardened}
	out := make([]deployment, 0, len(platforms))
	for _, p := range platforms {
		p := p
		out = append(out, deployment{string(p), func(tb *Testbed, cfg ScenarioConfig) error {
			_, err := Deploy(p, tb, cfg, DeployOptions{})
			return err
		}})
	}
	return out
}

func TestClosedLoopReachesSetpointOnAllPlatforms(t *testing.T) {
	for _, p := range allPlatforms() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			cfg := DefaultScenario()
			tb := NewTestbed(cfg)
			defer tb.Machine.Shutdown()
			if err := p.deploy(tb, cfg); err != nil {
				t.Fatalf("deploy: %v", err)
			}
			// Room starts at 18 °C; the controller must heat it to the
			// 22 °C setpoint and hold it there without tripping the alarm.
			tb.Machine.Run(40 * time.Minute)
			temp := tb.Room.Temperature()
			if temp < 21 || temp > 23 {
				t.Fatalf("after 40m temp = %.2f, want ~22", temp)
			}
			if tb.Room.AlarmOn() {
				t.Fatal("alarm on during healthy operation")
			}
			// The heater must have cycled at least once.
			heaterEvents := 0
			for _, ev := range tb.Room.History() {
				if ev.Kind.String() == "heater-on" || ev.Kind.String() == "heater-off" {
					heaterEvents++
				}
			}
			if heaterEvents == 0 {
				t.Fatal("heater never actuated")
			}
		})
	}
}

func TestWebStatusAndSetpointOnAllPlatforms(t *testing.T) {
	for _, p := range allPlatforms() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			cfg := DefaultScenario()
			tb := NewTestbed(cfg)
			defer tb.Machine.Shutdown()
			if err := p.deploy(tb, cfg); err != nil {
				t.Fatalf("deploy: %v", err)
			}
			tb.Machine.Run(10 * time.Second) // let the web server come up

			status, body, err := tb.HTTPGet("/status")
			if err != nil {
				t.Fatalf("GET /status: %v (body %q)", err, body)
			}
			if status != 200 || !strings.Contains(body, "setpoint=22.00") {
				t.Fatalf("status = %d %q", status, body)
			}

			status, body, err = tb.HTTPPostSetpoint("25")
			if err != nil || status != 200 {
				t.Fatalf("POST /setpoint: %d %q %v", status, body, err)
			}

			// The new setpoint must be visible and eventually governed to.
			status, body, err = tb.HTTPGet("/status")
			if err != nil || status != 200 || !strings.Contains(body, "setpoint=25.00") {
				t.Fatalf("status after set = %d %q %v", status, body, err)
			}
			tb.Machine.Run(60 * time.Minute)
			temp := tb.Room.Temperature()
			if temp < 24 || temp > 26 {
				t.Fatalf("after setpoint change temp = %.2f, want ~25", temp)
			}
		})
	}
}

func TestOutOfRangeSetpointRejectedOnAllPlatforms(t *testing.T) {
	for _, p := range allPlatforms() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			cfg := DefaultScenario()
			tb := NewTestbed(cfg)
			defer tb.Machine.Shutdown()
			if err := p.deploy(tb, cfg); err != nil {
				t.Fatalf("deploy: %v", err)
			}
			tb.Machine.Run(5 * time.Second)
			// "NaN" parses as a float but lies in no range.
			for _, bad := range []string{"99", "NaN"} {
				status, body, err := tb.HTTPPostSetpoint(bad)
				if err != nil {
					t.Fatalf("POST %s: %v", bad, err)
				}
				if status != 400 || !strings.Contains(body, "rejected") {
					t.Fatalf("POST %s: resp = %d %q, want 400 rejected", bad, status, body)
				}
			}
			status, body, err := tb.HTTPGet("/status")
			if err != nil || status != 200 || !strings.Contains(body, "setpoint=22.00") {
				t.Fatalf("status after rejected posts = %d %q %v, want setpoint=22.00", status, body, err)
			}
		})
	}
}

// TestSetpointEdgesAgreeOnAllPlatforms pins the range check to the value the
// administrator sent, on every platform: a value just outside [15, 30] is
// refused over HTTP and over BACnet, and one with more than four decimals is
// accepted. The Linux client once sent setpoints rounded to four decimals,
// so Linux alone accepted 30.00004 and 14.99996.
func TestSetpointEdgesAgreeOnAllPlatforms(t *testing.T) {
	for _, p := range KnownPlatforms() {
		t.Run(string(p), func(t *testing.T) {
			cfg := DefaultScenario()
			tb := NewTestbed(cfg)
			defer tb.Machine.Shutdown()
			if _, err := Deploy(p, tb, cfg, DeployOptions{BACnet: BACnetOptions{Enabled: true}}); err != nil {
				t.Fatalf("deploy: %v", err)
			}
			tb.Machine.Run(5 * time.Second)
			for _, tc := range []struct {
				value string
				want  int
			}{{"30.00004", 400}, {"14.99996", 400}, {"22.123456", 200}} {
				status, body, err := tb.HTTPPostSetpoint(tc.value)
				if err != nil || status != tc.want {
					t.Errorf("POST %s: %d %q %v, want %d", tc.value, status, body, err, tc.want)
				}
			}
			resp, err := bacnet.DecodePDU(tb.BACnetExchange(bacnet.PDU{
				Type: bacnet.WriteProperty, Device: 1, Object: bacnet.ObjSetpoint, Value: 30.00004,
			}.AppendEncode(nil)))
			if err != nil || resp.Type != bacnet.ErrorPDU || resp.Code != bacnet.CodeWriteDenied {
				t.Errorf("BACnet write 30.00004: %+v %v, want write-denied", resp, err)
			}
			status, body, err := tb.HTTPGet("/status")
			if err != nil || status != 200 || !strings.Contains(body, "setpoint=22.12") {
				t.Errorf("status = %d %q %v, want setpoint=22.12", status, body, err)
			}
		})
	}
}

func TestHeaterFailureTripsAlarmOnAllPlatforms(t *testing.T) {
	// The scenario's safety story: "if the controller fails to achieve the
	// desired temperature within certain time interval (e.g., 5 minutes),
	// the alarm will be triggered to alert the occupants."
	for _, p := range allPlatforms() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			cfg := DefaultScenario()
			cfg.Plant.InitialTemp = 22 // start at setpoint
			tb := NewTestbed(cfg)
			defer tb.Machine.Shutdown()
			if err := p.deploy(tb, cfg); err != nil {
				t.Fatalf("deploy: %v", err)
			}
			tb.Machine.Run(time.Minute)
			if tb.Room.AlarmOn() {
				t.Fatal("alarm before fault injection")
			}
			// Break the heater; the room drifts toward 15 °C ambient. Below
			// 20 °C the controller is out of tolerance and must trip the
			// alarm 5 minutes later.
			tb.Room.FailHeater(true)
			tb.Machine.Run(3 * time.Hour)
			if !tb.Room.AlarmOn() {
				t.Fatalf("alarm not raised after heater failure (temp %.2f)", tb.Room.Temperature())
			}
		})
	}
}

func TestMinixDriverCrashIsHealedByRS(t *testing.T) {
	// MINIX-only resilience: crash the sensor driver mid-run; the
	// reincarnation server restarts it and the control loop keeps working.
	cfg := DefaultScenario()
	tb := NewTestbed(cfg)
	defer tb.Machine.Shutdown()
	mdep, err := Deploy(PlatformMinix, tb, cfg, DeployOptions{})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	dep := mdep.(*MinixDeployment)
	tb.Machine.Run(time.Minute)

	sensorEP, err := dep.Kernel.EndpointOf(NameTempSensor)
	if err != nil {
		t.Fatalf("sensor missing: %v", err)
	}
	// Simulate a driver fault: kill it as a crash (not a voluntary exit).
	proc := dep.Kernel.Machine().Engine()
	entry := dep.Kernel.Machine()
	_ = entry
	acid, _ := dep.Kernel.ACIDOf(sensorEP)
	_ = acid
	// Crash via the engine directly (models a hardware fault / driver bug).
	for _, p := range proc.Procs() {
		if p.Name() == NameTempSensor && p.State().String() != "dead" {
			if err := proc.Kill(p.PID()); err != nil {
				t.Fatalf("kill sensor: %v", err)
			}
			break
		}
	}
	tb.Machine.Run(40 * time.Minute)
	if dep.Kernel.RS().Restarts(NameTempSensor) == 0 {
		t.Fatal("RS did not restart the sensor driver")
	}
	temp := tb.Room.Temperature()
	if temp < 21 || temp > 23 {
		t.Fatalf("control loop did not survive driver crash: temp %.2f", temp)
	}
	if tb.Room.AlarmOn() {
		t.Fatal("alarm on after recovery")
	}
}

func TestSel4CapDLVerifiesForScenario(t *testing.T) {
	cfg := DefaultScenario()
	tb := NewTestbed(cfg)
	defer tb.Machine.Shutdown()
	sdep, err := Deploy(PlatformSel4, tb, cfg, DeployOptions{})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	dep := sdep.(*Sel4Deployment)
	if err := dep.System.Verify(); err != nil {
		t.Fatalf("CapDL verify at boot: %v", err)
	}
	tb.Machine.Run(10 * time.Minute)
	if err := dep.System.Verify(); err != nil {
		t.Fatalf("CapDL verify after run: %v", err)
	}
	// The web interface thread must hold exactly two capabilities: its mgmt
	// client endpoint and its network port.
	webTCB, ok := dep.System.TCB(NameWebInterface)
	if !ok {
		t.Fatal("web tcb missing")
	}
	n, err := dep.System.Kernel().CapCount(webTCB)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("web interface holds %d caps, want 2 (mgmt endpoint + net port)", n)
	}
}

func TestDeterministicClosedLoop(t *testing.T) {
	run := func() (float64, int) {
		cfg := DefaultScenario()
		cfg.Plant.SensorNoise = 0.05
		tb := NewTestbed(cfg)
		defer tb.Machine.Shutdown()
		if _, err := Deploy(PlatformMinix, tb, cfg, DeployOptions{}); err != nil {
			t.Fatalf("deploy: %v", err)
		}
		tb.Machine.Run(30 * time.Minute)
		return tb.Room.Temperature(), len(tb.Room.History())
	}
	t1, h1 := run()
	t2, h2 := run()
	if t1 != t2 || h1 != h2 {
		t.Fatalf("runs diverged: temp %.9f vs %.9f, events %d vs %d", t1, t2, h1, h2)
	}
}
