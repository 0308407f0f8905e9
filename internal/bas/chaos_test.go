package bas

import (
	"testing"
	"time"

	"mkbas/internal/faultinject"
)

// These tests bind the fault-injection campaign layer to real deployments
// (experiment E10): the same plan runs on every platform, and the outcomes
// differ only by the recovery machinery underneath.

// armOrFatal looks up a builtin plan and arms it on the deployment.
func armOrFatal(t *testing.T, dep *Deployment, plan string) *faultinject.Injector {
	t.Helper()
	p, err := faultinject.Lookup(plan)
	if err != nil {
		t.Fatalf("Lookup(%s): %v", plan, err)
	}
	inj, err := dep.ArmFaults(p)
	if err != nil {
		t.Fatalf("ArmFaults(%s): %v", plan, err)
	}
	return inj
}

// TestFailsafeEntersAndExitsOnAllPlatforms pins the hardened controller's
// staleness watchdog end to end: a hung sensor driver (alive but black-holed
// IPC) starves the controller, which must enter failsafe — heater off, alarm
// on — within a bounded delay, and exit on the first fresh sample after the
// hang clears.
func TestFailsafeEntersAndExitsOnAllPlatforms(t *testing.T) {
	for _, p := range []Platform{PlatformMinix, PlatformSel4, PlatformLinux} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			cfg := DefaultScenario()
			tb := NewTestbed(cfg)
			defer tb.Machine.Shutdown()
			dep, err := Deploy(p, tb, cfg, DeployOptions{})
			if err != nil {
				t.Fatalf("deploy: %v", err)
			}
			// hang-sensor: IPC to and from tempSensProc black-holed at 40m
			// for 2 minutes.
			inj := armOrFatal(t, dep, "hang-sensor")

			tb.Machine.Run(40 * time.Minute)
			if tb.Room.AlarmOn() {
				t.Fatal("alarm on before the hang")
			}
			// Entry: the staleness window is 10s and the bindings poll at
			// half-window granularity, so failsafe must be engaged well
			// within 30s of the last sample.
			tb.Machine.Run(30 * time.Second)
			if !tb.Room.AlarmOn() {
				t.Fatal("failsafe alarm not raised after sensor went silent")
			}
			if tb.Room.HeaterOn() {
				t.Fatal("heater still commanded on while blind")
			}
			if temp := tb.Room.Temperature(); temp < 20 || temp > 24 {
				t.Fatalf("room at %.2f during failsafe, expected near setpoint", temp)
			}

			// Exit: the hang clears at 42m; the next sample ends failsafe.
			tb.Machine.Run(4 * time.Minute)
			if tb.Room.AlarmOn() {
				t.Fatal("alarm still on after the sensor recovered")
			}
			if temp := tb.Room.Temperature(); temp < 21 || temp > 23 {
				t.Fatalf("loop did not resume control: temp %.2f", temp)
			}

			// The injector saw the self-healing: recovered with MTTR just
			// over the 2-minute hang window, and no process ever restarted.
			rep := inj.Report()
			if rep.Injected != 1 || rep.Recovered != 1 {
				t.Fatalf("report: %+v, want 1 injected 1 recovered", rep)
			}
			if min, max := int64(2*time.Minute), int64(2*time.Minute+30*time.Second); rep.MTTRMaxNs < min || rep.MTTRMaxNs > max {
				t.Errorf("MTTR %s outside [2m, 2m30s]", time.Duration(rep.MTTRMaxNs))
			}
			if n := dep.ControllerRestarts(); n != 0 {
				t.Errorf("restarts = %d on a hang (nothing died)", n)
			}
		})
	}
}

// TestCrashSensorRecoveryContrast is the E10 headline at the deployment
// layer: the same sensor-driver crash is healed by MINIX RS, the seL4
// monitor, and the hardened-Linux supervisor, while the paper's default
// Linux deployment — no supervisor — loses the sensor permanently and the
// controller parks in failsafe.
func TestCrashSensorRecoveryContrast(t *testing.T) {
	cases := []struct {
		platform Platform
		recovery bool
		healed   bool
	}{
		{PlatformMinix, false, true}, // RS is integral: no opt-in needed
		{PlatformSel4, true, true},
		{PlatformLinuxHardened, true, true},
		{PlatformLinux, true, false}, // Recovery is ignored on plain Linux
	}
	for _, c := range cases {
		c := c
		t.Run(string(c.platform), func(t *testing.T) {
			cfg := DefaultScenario()
			tb := NewTestbed(cfg)
			defer tb.Machine.Shutdown()
			dep, err := Deploy(c.platform, tb, cfg, DeployOptions{Recovery: c.recovery})
			if err != nil {
				t.Fatalf("deploy: %v", err)
			}
			inj := armOrFatal(t, dep, "crash-sensor") // kills tempSensProc at 40m
			tb.Machine.Run(50 * time.Minute)

			rep := inj.Report()
			if !c.healed {
				// The controller itself survives — only its sensor is gone —
				// so liveness alone cannot tell this run from a healthy one.
				if !dep.ControllerAlive() {
					t.Error("controller process died; only the sensor was crashed")
				}
				if dep.ControllerRecovered() || dep.ControllerRestarts() != 0 {
					t.Errorf("vanilla Linux reports recovery: restarts=%d recovered=%v",
						dep.ControllerRestarts(), dep.ControllerRecovered())
				}
				if !tb.Room.AlarmOn() {
					t.Error("failsafe alarm not latched with the sensor gone for good")
				}
				if tb.Room.HeaterOn() {
					t.Error("heater on while permanently blind")
				}
				if rep.Unrecovered != 1 {
					t.Errorf("fault report: %+v, want 1 unrecovered", rep)
				}
				return
			}
			if n := dep.ControllerRestarts(); n < 1 {
				t.Errorf("restarts = %d, want >= 1", n)
			}
			if !dep.ControllerRecovered() {
				t.Error("ControllerRecovered = false after a healed crash")
			}
			if tb.Room.AlarmOn() {
				t.Error("alarm on after recovery")
			}
			if temp := tb.Room.Temperature(); temp < 21 || temp > 23 {
				t.Errorf("loop did not survive the crash: temp %.2f", temp)
			}
			if rep.Recovered != 1 {
				t.Fatalf("fault report: %+v, want 1 recovered", rep)
			}
			// MTTR is bounded by the recovery period (RS backoff 50ms, the
			// monitor and supervisor sweep at 1s) plus one sample.
			if rep.MTTRMaxNs <= 0 || rep.MTTRMaxNs > int64(30*time.Second) {
				t.Errorf("MTTR %s not in (0, 30s]", time.Duration(rep.MTTRMaxNs))
			}
		})
	}
}

// TestLinuxFaultsAddressQueueConsumers pins the Linux fault adapter's
// queue-to-process translation on both account layouts and every gateway
// shape: a request queue is addressed as its reader's, the reply queue as
// its first client's, the web interface's, and the audit log as itself.
func TestLinuxFaultsAddressQueueConsumers(t *testing.T) {
	want := map[string]string{
		QSensorData: NameTempControl,
		QHeaterCmd:  NameHeaterAct,
		QAlarmCmd:   NameAlarmAct,
		QWebReq:     NameTempControl,
		QWebResp:    NameWebInterface,
		QAuditLog:   QAuditLog,
	}
	for _, hardened := range []bool{false, true} {
		for _, bacnet := range []bool{false, true} {
			for _, tenant := range []bool{false, true} {
				dac := linuxDefault(bacnet, tenant).dac[hardened]
				for queue, consumer := range want {
					if got := dac.consumerOf(queue); got != consumer {
						t.Errorf("hardened=%v bacnet=%v tenant=%v: a fault on %s addresses %q, want %q", hardened, bacnet, tenant, queue, got, consumer)
					}
				}
			}
		}
	}
}
