package attack

import (
	"strings"
	"testing"

	"mkbas/internal/obs"
)

// These tests pin the shape of the paper's Section IV-D results: every cell
// asserted here is a claim the paper makes (or an ablation that sharpens
// one).

func mustExecute(t *testing.T, spec Spec) *Report {
	t.Helper()
	report, err := Execute(spec)
	if err != nil {
		t.Fatalf("Execute(%+v): %v", spec, err)
	}
	t.Logf("\n%s", Summarize(report))
	return report
}

// assertDeniedBy checks that the platform's security-event stream named the
// expected mediation mechanism for a blocked attack.
func assertDeniedBy(t *testing.T, r *Report, mech obs.Mechanism) {
	t.Helper()
	if r.SecurityEvents.Len() == 0 {
		t.Fatalf("%s/%s blocked but emitted no security events", r.Spec.Platform, r.Spec.Action)
	}
	for _, m := range r.Mechanisms {
		if m == mech {
			return
		}
	}
	t.Fatalf("%s/%s: mechanisms %v do not include %q", r.Spec.Platform, r.Spec.Action, r.Mechanisms, mech)
}

// --- Linux: the attacks succeed -------------------------------------------

func TestLinuxSpoofCompromisesPhysicalWorld(t *testing.T) {
	r := mustExecute(t, Spec{Platform: PlatformLinux, Action: ActionSpoofSensor})
	if !r.OperationSucceeded {
		t.Fatal("spoof operations were denied on Linux")
	}
	if !r.PhysicalCompromise {
		t.Fatal("no physical impact: spoof should have let the room drift")
	}
	if !r.ControllerAlive {
		t.Fatal("controller died; spoof should leave it running but deceived")
	}
}

func TestLinuxCommandActuatorsCompromises(t *testing.T) {
	r := mustExecute(t, Spec{Platform: PlatformLinux, Action: ActionCommandActuators})
	if !r.OperationSucceeded || !r.PhysicalCompromise {
		t.Fatalf("actuator takeover should succeed on Linux: %s", r.Verdict())
	}
}

func TestLinuxKillControllerSucceedsEvenWithoutRoot(t *testing.T) {
	// All five processes share one account, so kill(2) needs no root — a
	// sharper statement than the paper's root-based kill.
	r := mustExecute(t, Spec{Platform: PlatformLinux, Action: ActionKillController})
	if r.ControllerAlive {
		t.Fatal("controller survived same-uid kill")
	}
	if !r.PhysicalCompromise {
		t.Fatal("dead controller must count as physical compromise")
	}
}

func TestLinuxRootKillCompromises(t *testing.T) {
	r := mustExecute(t, Spec{Platform: PlatformLinux, Action: ActionKillController, Root: true})
	if r.ControllerAlive || !r.PhysicalCompromise {
		t.Fatalf("root kill must succeed: %s", r.Verdict())
	}
}

func TestLinuxEnumerateFindsAllQueues(t *testing.T) {
	r := mustExecute(t, Spec{Platform: PlatformLinux, Action: ActionEnumerate})
	if r.Successes != 4 {
		t.Fatalf("unauthorized opens = %d, want all 4 shared-account queues", r.Successes)
	}
}

// --- Hardened Linux: DAC blunts the user attack, root defeats DAC ---------

func TestHardenedLinuxBlocksUserSpoof(t *testing.T) {
	r := mustExecute(t, Spec{Platform: PlatformLinuxHardened, Action: ActionSpoofSensor})
	if r.OperationSucceeded {
		t.Fatal("hardened DAC accepted a spoof without root")
	}
	if r.PhysicalCompromise {
		t.Fatalf("physical compromise despite denied operations: %v", r.Violations)
	}
	assertDeniedBy(t, r, obs.MechDAC)
}

func TestHardenedLinuxRootSpoofCompromises(t *testing.T) {
	r := mustExecute(t, Spec{Platform: PlatformLinuxHardened, Action: ActionSpoofSensor, Root: true})
	if !r.OperationSucceeded {
		t.Fatal("root spoof denied; root must bypass DAC")
	}
	if !r.PhysicalCompromise {
		t.Fatal("root spoof should compromise the physical world")
	}
}

func TestHardenedLinuxBlocksUserKillButNotRootKill(t *testing.T) {
	user := mustExecute(t, Spec{Platform: PlatformLinuxHardened, Action: ActionKillController})
	if !user.ControllerAlive {
		t.Fatal("controller died to a non-root cross-uid kill")
	}
	root := mustExecute(t, Spec{Platform: PlatformLinuxHardened, Action: ActionKillController, Root: true})
	if root.ControllerAlive {
		t.Fatal("controller survived root kill")
	}
}

// --- Security-enhanced MINIX 3: everything is blocked ----------------------

func TestMinixBlocksSpoofBothModels(t *testing.T) {
	for _, root := range []bool{false, true} {
		r := mustExecute(t, Spec{Platform: PlatformMinix, Action: ActionSpoofSensor, Root: root})
		if r.OperationSucceeded {
			t.Fatalf("root=%v: ACM accepted a spoofed sensor message", root)
		}
		if r.PhysicalCompromise {
			t.Fatalf("root=%v: physical compromise on MINIX: %v", root, r.Violations)
		}
		if r.Denials == 0 {
			t.Fatalf("root=%v: no denials recorded; attack never ran?", root)
		}
		assertDeniedBy(t, r, obs.MechACM)
	}
}

func TestMinixBlocksActuatorCommands(t *testing.T) {
	r := mustExecute(t, Spec{Platform: PlatformMinix, Action: ActionCommandActuators, Root: true})
	if r.OperationSucceeded || r.PhysicalCompromise {
		t.Fatalf("actuator takeover on MINIX: %s", r.Verdict())
	}
}

func TestMinixBlocksKillBothModels(t *testing.T) {
	for _, root := range []bool{false, true} {
		r := mustExecute(t, Spec{Platform: PlatformMinix, Action: ActionKillController, Root: root})
		if !r.ControllerAlive {
			t.Fatalf("root=%v: controller killed on MINIX", root)
		}
		if r.OperationSucceeded {
			t.Fatalf("root=%v: PM granted a kill to the web interface", root)
		}
		assertDeniedBy(t, r, obs.MechSyscallMask)
	}
}

func TestMinixEndpointScanReachesOnlySystemServers(t *testing.T) {
	r := mustExecute(t, Spec{Platform: PlatformMinix, Action: ActionEnumerate})
	// In MINIX any process may message PM and RS — that IS the syscall
	// interface — so the scan's only accepted sends are the two system
	// servers, which audit and refuse the requests. No application process
	// accepts anything.
	if r.Successes > 2 {
		t.Fatalf("endpoint scan accepted %d sends, want at most the 2 system servers", r.Successes)
	}
	if r.PhysicalCompromise {
		t.Fatal("scan compromised the plant")
	}
	if !r.ControllerAlive {
		t.Fatal("controller died during scan")
	}
}

func TestMinixVanillaAblationSpoofSucceeds(t *testing.T) {
	// Ablation: with the ACM disabled, the naive controller believes the
	// spoofed data — the mandatory check is the load-bearing element.
	r := mustExecute(t, Spec{Platform: PlatformMinixVanilla, Action: ActionSpoofSensor})
	if !r.OperationSucceeded {
		t.Fatal("vanilla MINIX denied the spoof; ACM should be the only defence")
	}
	if !r.PhysicalCompromise {
		t.Fatal("vanilla MINIX spoof had no physical impact")
	}
}

func TestMinixForkBombUnboundedWithoutQuota(t *testing.T) {
	r := mustExecute(t, Spec{Platform: PlatformMinix, Action: ActionForkBomb})
	if r.Successes < 50 {
		t.Fatalf("fork bomb created only %d processes; expected a runaway", r.Successes)
	}
	// The bomb wastes resources but, thanks to priority scheduling and the
	// ACM, must not touch the physical process.
	if r.PhysicalCompromise {
		t.Fatalf("fork bomb compromised the plant: %v", r.Violations)
	}
}

func TestMinixForkQuotaStopsBomb(t *testing.T) {
	// E8: the paper's proposed future-work mitigation, implemented.
	r := mustExecute(t, Spec{Platform: PlatformMinix, Action: ActionForkBomb, ForkQuota: 5})
	if r.Successes != 5 {
		t.Fatalf("quota of 5 allowed %d forks", r.Successes)
	}
	if r.PhysicalCompromise {
		t.Fatal("bounded bomb compromised the plant")
	}
}

// --- seL4/CAmkES: capabilities confine everything ---------------------------

func TestSel4BlocksSpoof(t *testing.T) {
	r := mustExecute(t, Spec{Platform: PlatformSel4, Action: ActionSpoofSensor})
	if r.PhysicalCompromise {
		t.Fatalf("spoof compromised the plant on seL4: %v", r.Violations)
	}
	if !r.ControllerAlive {
		t.Fatal("controller threads died")
	}
}

func TestSel4BlocksActuatorCommands(t *testing.T) {
	r := mustExecute(t, Spec{Platform: PlatformSel4, Action: ActionCommandActuators})
	if r.PhysicalCompromise {
		t.Fatalf("actuator takeover on seL4: %v", r.Violations)
	}
}

func TestSel4BlocksKill(t *testing.T) {
	r := mustExecute(t, Spec{Platform: PlatformSel4, Action: ActionKillController, Root: true})
	if !r.ControllerAlive {
		t.Fatal("controller suspended without a TCB capability")
	}
	if r.Successes != 0 {
		t.Fatalf("%d suspend invocations accepted, want 0", r.Successes)
	}
	assertDeniedBy(t, r, obs.MechCapability)
}

func TestSel4BruteForceFindsOnlyGrantedSlots(t *testing.T) {
	// "This brute-force program was unsuccessful in finding any additional
	// capabilities": exactly the mgmt endpoint and the network port answer.
	r := mustExecute(t, Spec{Platform: PlatformSel4, Action: ActionEnumerate})
	if r.Successes != 2 {
		t.Fatalf("usable slots = %d, want exactly 2 (mgmt endpoint + net port)", r.Successes)
	}
	if r.PhysicalCompromise {
		t.Fatal("brute force compromised the plant")
	}
}

func TestSel4ForkBombImpossible(t *testing.T) {
	r := mustExecute(t, Spec{Platform: PlatformSel4, Action: ActionForkBomb})
	if r.Successes != 0 {
		t.Fatal("a CAmkES component created processes?")
	}
}

// --- The matrix -------------------------------------------------------------

func TestMatrixHeadlineShape(t *testing.T) {
	// One row of the paper's headline comparison, both attacker models on
	// the kill attack: Linux falls, both microkernels stand.
	reports, err := RunMatrix(AllPlatforms(), []Action{ActionKillController}, true)
	if err != nil {
		t.Fatal(err)
	}
	table := FormatMatrix(reports)
	t.Logf("\n%s", table)
	byPlatform := make(map[Platform]*Report)
	for _, r := range reports {
		byPlatform[r.Spec.Platform] = r
	}
	if byPlatform[PlatformLinux].ControllerAlive {
		t.Error("linux controller survived")
	}
	if !byPlatform[PlatformMinix].ControllerAlive {
		t.Error("minix controller died")
	}
	if !byPlatform[PlatformSel4].ControllerAlive {
		t.Error("sel4 controller died")
	}
	if !strings.Contains(table, "COMPROMISED") || !strings.Contains(table, "BLOCKED") {
		t.Errorf("table missing verdicts:\n%s", table)
	}
}

func TestExecuteRejectsUnknownPlatform(t *testing.T) {
	if _, err := Execute(Spec{Platform: "plan9", Action: ActionSpoofSensor}); err == nil {
		t.Fatal("unknown platform accepted")
	}
}
