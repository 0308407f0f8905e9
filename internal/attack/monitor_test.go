package attack

import (
	"testing"
	"time"

	"mkbas/internal/bas"
)

// E12: the online policy monitor under real attack traffic. The deployment
// tests (internal/bas) pin the mechanism — synchronous, same-tick detection
// through the kernels' record funnel; these pin the security results: a
// kernel that delivers uncertified traffic is caught by the monitor through
// its own IPC path, an enforcing kernel leaves the monitor silent, and the
// demote response flips the building's lateral-movement verdicts.

func TestMonitorDetectsVanillaMinixSpoofThroughKernelPath(t *testing.T) {
	// Vanilla MINIX enforces nothing, so the spoofed sensor frames are
	// delivered — and every delivery is recorded, so the monitor sees the
	// attack the ACM would have blocked. Runtime verification is the only
	// policy check this configuration has.
	r := mustExecute(t, Spec{Platform: bas.PlatformMinixVanilla, Action: ActionSpoofSensor, Monitor: true})
	if !r.OperationSucceeded {
		t.Fatal("vanilla MINIX should deliver the spoof")
	}
	if r.MonitorStats == nil {
		t.Fatal("no monitor stats on a monitored run")
	}
	if r.MonitorStats.PolicyDrifts == 0 {
		t.Fatalf("delivered spoof traffic never drifted: %+v", r.MonitorStats)
	}
}

func TestMonitorDetectsLinuxActuatorTakeover(t *testing.T) {
	// Same-account Linux DAC delivers the forged actuator commands; the
	// monitor checks them against the scenario contract and flags every one.
	r := mustExecute(t, Spec{Platform: bas.PlatformLinux, Action: ActionCommandActuators, Monitor: true})
	if !r.OperationSucceeded {
		t.Fatal("actuator takeover should succeed on Linux")
	}
	if r.MonitorStats == nil || r.MonitorStats.PolicyDrifts == 0 {
		t.Fatalf("takeover traffic never drifted: %+v", r.MonitorStats)
	}
}

func TestMonitorSilentWhereKernelEnforces(t *testing.T) {
	// On the enforcing platforms every delivery the kernel lets through rides
	// a certified grant — on seL4 the brute-forcing attacker's only accepted
	// sends go through the web component's own endpoint capability, which IS
	// its certified edge. The kernel verdict and the monitor verdict must
	// agree: zero drift between the static graph and the observed traffic.
	for _, p := range []bas.Platform{bas.PlatformMinix, bas.PlatformSel4} {
		r := mustExecute(t, Spec{Platform: p, Action: ActionSpoofSensor, Monitor: true})
		if r.PhysicalCompromise {
			t.Fatalf("%s: spoof compromised the plant", p)
		}
		if r.MonitorStats == nil {
			t.Fatalf("%s: no monitor stats", p)
		}
		if r.MonitorStats.Observed == 0 {
			t.Fatalf("%s: monitor observed nothing", p)
		}
		if r.MonitorStats.PolicyDrifts != 0 || r.MonitorStats.OriginDrifts != 0 {
			t.Fatalf("%s: drift on a fully-mediated board: %+v", p, r.MonitorStats)
		}
	}
}

func TestDemoteSpecLowersWebOrigin(t *testing.T) {
	r := mustExecute(t, Spec{Platform: bas.PlatformLinux, Action: ActionSpoofSensor, Demote: true})
	if r.MonitorStats == nil {
		t.Fatal("Demote implies Monitor; stats missing")
	}
	if r.MonitorStats.Demotions != 1 {
		t.Fatalf("Demotions = %d, want 1 (web interface demoted at attack start)", r.MonitorStats.Demotions)
	}
}

// TestBuildingDemoteFlipsVerdicts is E12's acceptance case: an all-legacy
// building where the lateral-movement attack compromises every sibling room
// in the baseline, re-run with origin demotion enforcing the certified bus
// dial set. The attacker's uncertified dials are refused at the first flush,
// no forged frame lands, and every formerly-COMPROMISED room reports SECURE.
func TestBuildingDemoteFlipsVerdicts(t *testing.T) {
	spec := BuildingSpec{
		Rooms:  4,
		Mix:    buildingMix(),
		Secure: make([]bool, 4), // all legacy: the baseline worst case
		Attack: true,
		Settle: 10 * time.Minute,
		Window: 20 * time.Minute,
	}
	baseline, err := ExecuteBuilding(spec)
	if err != nil {
		t.Fatal(err)
	}
	var compromised []int
	for _, o := range baseline.Outcomes[1:] {
		if o.Verdict == "COMPROMISED" {
			compromised = append(compromised, o.Room)
		}
	}
	if len(compromised) == 0 {
		t.Fatal("baseline all-legacy building has no compromised rooms; the delta has nothing to show")
	}
	if baseline.Building.BusDrifts != 0 {
		t.Fatalf("unmonitored baseline recorded bus drifts: %d", baseline.Building.BusDrifts)
	}

	spec.Demote = true
	demoted, err := ExecuteBuilding(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, room := range compromised {
		o := demoted.Outcomes[room]
		if o.Verdict != "SECURE" {
			t.Fatalf("room %d (%s): verdict %s under demotion, want SECURE (was COMPROMISED)",
				room, o.Platform, o.Verdict)
		}
		if o.ForgedAccepted != 0 || o.ReplaysAccepted != 0 {
			t.Fatalf("room %d accepted attacker frames despite refused dials: %+v", room, o)
		}
	}
	// The refusals are attributed to the foothold room, whose node originated
	// the uncertified dials, and its web subject was demoted on the first one.
	o0 := demoted.Outcomes[0]
	if o0.BusDrifts == 0 || o0.BusRefused == 0 {
		t.Fatalf("foothold room recorded no refused dials: %+v", o0)
	}
	if !o0.Demoted {
		t.Fatal("foothold room's web subject was never demoted")
	}
	if demoted.Building.BusRefused != o0.BusRefused {
		t.Fatalf("building refusal total %d != foothold room %d",
			demoted.Building.BusRefused, o0.BusRefused)
	}
}

// TestBuildingMonitorOnlyObservesWithoutChangingVerdicts: observe-only mode
// must record the drift but leave outcomes exactly as the baseline — the
// monitor is a measurement instrument until demotion arms it.
func TestBuildingMonitorOnlyObservesWithoutChangingVerdicts(t *testing.T) {
	spec := BuildingSpec{
		Rooms:  4,
		Mix:    buildingMix(),
		Secure: make([]bool, 4),
		Attack: true,
		Settle: 10 * time.Minute,
		Window: 20 * time.Minute,
	}
	baseline, err := ExecuteBuilding(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Monitor = true
	observed, err := ExecuteBuilding(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range baseline.Outcomes {
		if baseline.Outcomes[i].Verdict != observed.Outcomes[i].Verdict {
			t.Fatalf("room %d verdict changed under observe-only monitor: %s -> %s",
				i, baseline.Outcomes[i].Verdict, observed.Outcomes[i].Verdict)
		}
	}
	if observed.Building.BusDrifts == 0 {
		t.Fatal("observe-only monitor recorded no uncertified bus dials")
	}
	if observed.Building.BusRefused != 0 {
		t.Fatalf("observe-only monitor refused %d dials", observed.Building.BusRefused)
	}
}
