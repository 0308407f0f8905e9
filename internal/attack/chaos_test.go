package attack

import (
	"testing"
	"time"

	"mkbas/internal/bas"
	"mkbas/internal/safety"
)

// TestChaosVerdictTableE10 asserts the experiment E10 headline: under the
// same sensor-driver crash (no attacker at all), the microkernel platforms
// reincarnate the driver with bounded MTTR and zero safety violations, while
// the paper's default Linux deployment — no supervisor — never gets its
// sensor back and the physical world degrades.
func TestChaosVerdictTableE10(t *testing.T) {
	cases := []struct {
		platform bas.Platform
		verdict  string
	}{
		{bas.PlatformMinix, "RECOVERED"},
		{bas.PlatformSel4, "RECOVERED"},
		{bas.PlatformLinux, "COMPROMISED"},
	}
	for _, c := range cases {
		c := c
		t.Run(string(c.platform), func(t *testing.T) {
			rep, err := Execute(Spec{
				Platform:  c.platform,
				Action:    ActionNone,
				FaultPlan: "crash-sensor",
				Recovery:  true,
			})
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			if got := rep.Verdict(); got != c.verdict {
				t.Fatalf("verdict = %s, want %s (report: restarts=%d recovered=%v violations=%d)",
					got, c.verdict, rep.Restarts, rep.Recovered, len(rep.Violations))
			}
			if rep.FaultReport == nil || rep.FaultReport.Injected != 1 {
				t.Fatalf("fault report missing or empty: %+v", rep.FaultReport)
			}
			if c.verdict == "RECOVERED" {
				if rep.Restarts < 1 || !rep.Recovered {
					t.Errorf("restarts=%d recovered=%v, want a reincarnation", rep.Restarts, rep.Recovered)
				}
				if len(rep.Violations) != 0 {
					t.Errorf("safety violations on a healed run: %v", rep.Violations)
				}
				fr := rep.FaultReport
				if fr.Recovered != 1 || fr.MTTRMaxNs <= 0 || fr.MTTRMaxNs > int64(30*time.Second) {
					t.Errorf("MTTR %s not bounded by (0, 30s]: %+v", time.Duration(fr.MTTRMaxNs), fr)
				}
				if rep.ViolationsDuringFault != 0 {
					t.Errorf("ViolationsDuringFault = %d, want 0", rep.ViolationsDuringFault)
				}
				return
			}
			// The COMPROMISED row: the controller itself never died — the
			// verdict comes from physical degradation, not lost liveness.
			if !rep.ControllerAlive {
				t.Error("controller process died; the crash targeted only the sensor")
			}
			if rep.Recovered || rep.Restarts != 0 {
				t.Errorf("vanilla Linux reports recovery: restarts=%d recovered=%v", rep.Restarts, rep.Recovered)
			}
			if rep.FaultReport.Unrecovered != 1 {
				t.Errorf("fault report: %+v, want 1 unrecovered", rep.FaultReport)
			}
			var rangeViolations int
			for _, v := range rep.Violations {
				if v.Property == safety.PropTempInRange {
					rangeViolations++
				}
			}
			if rangeViolations == 0 {
				t.Errorf("no temp-in-range violations; got %v", rep.Violations)
			}
			if rep.ViolationsDuringFault == 0 {
				t.Error("violations not attributed to the open fault window")
			}
		})
	}
}

// TestChaosHangSelfHealsEverywhere pins the contrasting fault class: a hang
// (driver alive, IPC black-holed) self-heals when the window closes, so even
// supervisor-less Linux ends the run healthy — failsafe held the room safe
// and no verdict-worthy damage accrued.
func TestChaosHangSelfHealsEverywhere(t *testing.T) {
	for _, p := range bas.AllPlatforms() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			rep, err := Execute(Spec{Platform: p, Action: ActionNone, FaultPlan: "hang-sensor"})
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			if got := rep.Verdict(); got != "BLOCKED" {
				t.Fatalf("verdict = %s, want BLOCKED (nothing died, nothing drifted): %v", got, rep.Violations)
			}
			if rep.Restarts != 0 {
				t.Errorf("restarts = %d on a hang", rep.Restarts)
			}
			fr := rep.FaultReport
			if fr == nil || fr.Recovered != 1 || fr.Unrecovered != 0 {
				t.Fatalf("fault report: %+v, want the hang recovered", fr)
			}
		})
	}
}
