package attack

import (
	"testing"

	"mkbas/internal/bas"
	"mkbas/internal/obs"
)

// TestAPIAttackOutcomes pins the E16 adjudication semantics: the stolen
// manager credential is the family's money row — the write rides certified
// edges on every platform, so the physical world is compromised unless the
// tenant tier's incident response (revocation + origin demotion) runs; the
// other rows are blocked or contained by the tier's own mediation layers.
func TestAPIAttackOutcomes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hour virtual attack runs")
	}
	cases := []struct {
		name    string
		spec    Spec
		verdict string
		mechs   []obs.Mechanism
	}{
		{
			name:    "manager token replay compromises through certified path",
			spec:    Spec{Platform: bas.PlatformMinix, Action: ActionAPITokenReplay, Root: true},
			verdict: "COMPROMISED",
		},
		{
			name:    "revocation and demotion block the replayed manager token",
			spec:    Spec{Platform: bas.PlatformMinix, Action: ActionAPITokenReplay, Root: true, Demote: true},
			verdict: "BLOCKED",
			mechs:   []obs.Mechanism{obs.MechSession},
		},
		{
			name:    "occupant cannot escalate to manager routes",
			spec:    Spec{Platform: bas.PlatformMinix, Action: ActionAPIRoleEscalation},
			verdict: "BLOCKED",
			mechs:   []obs.Mechanism{obs.MechRBAC},
		},
		{
			name:    "flood sheds at every layer without denying legitimate service",
			spec:    Spec{Platform: bas.PlatformMinix, Action: ActionAPIFlood},
			verdict: "BLOCKED",
			mechs:   []obs.Mechanism{obs.MechBackpressure, obs.MechRateLimit, obs.MechSession},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Execute(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Verdict() != tc.verdict {
				t.Fatalf("verdict = %s, want %s (blockedBy=%q, %d violations)",
					rep.Verdict(), tc.verdict, rep.BlockedBy(), len(rep.Violations))
			}
			have := make(map[obs.Mechanism]bool, len(rep.Mechanisms))
			for _, m := range rep.Mechanisms {
				have[m] = true
			}
			for _, m := range tc.mechs {
				if !have[m] {
					t.Errorf("mediating mechanism %q missing (have %v)", m, rep.Mechanisms)
				}
			}
			if tc.verdict == "BLOCKED" && rep.Successes != 0 {
				t.Errorf("BLOCKED run recorded %d attacker successes", rep.Successes)
			}
		})
	}
}
