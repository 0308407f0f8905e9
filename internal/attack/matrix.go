package attack

import (
	"fmt"
	"strings"

	"mkbas/internal/bas"
)

// FormatMatrix renders reports as the outcome table: one row per action, one
// column per platform.
func FormatMatrix(reports []*Report) string {
	var platforms []bas.Platform
	var actions []Action
	cell := make(map[bas.Platform]map[Action]*Report)
	for _, r := range reports {
		if _, ok := cell[r.Spec.Platform]; !ok {
			cell[r.Spec.Platform] = make(map[Action]*Report)
			platforms = append(platforms, r.Spec.Platform)
		}
		if _, ok := cell[r.Spec.Platform][r.Spec.Action]; !ok {
			cell[r.Spec.Platform][r.Spec.Action] = r
		}
		seen := false
		for _, a := range actions {
			if a == r.Spec.Action {
				seen = true
			}
		}
		if !seen {
			actions = append(actions, r.Spec.Action)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-20s", "attack \\ platform")
	for _, p := range platforms {
		fmt.Fprintf(&b, " | %-20s", p)
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", 20+len(platforms)*23))
	b.WriteByte('\n')
	for _, a := range actions {
		fmt.Fprintf(&b, "%-20s", a)
		for _, p := range platforms {
			r := cell[p][a]
			if r == nil {
				fmt.Fprintf(&b, " | %-20s", "-")
				continue
			}
			fmt.Fprintf(&b, " | %-20s", r.Verdict())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Summarize renders one report in a few lines for experiment logs.
func Summarize(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s (root=%v): %s\n", r.Spec.Action, r.Spec.Platform, r.Spec.Root, r.Verdict())
	fmt.Fprintf(&b, "  operations: %d attempted, %d accepted, %d denied\n", r.Attempts, r.Successes, r.Denials)
	fmt.Fprintf(&b, "  controller alive: %v, safety violations: %d\n", r.ControllerAlive, len(r.Violations))
	if r.SecurityEvents.Len() > 0 {
		fmt.Fprintf(&b, "  mediation: %d security events, denied by %s\n", r.SecurityEvents.Len(), r.BlockedBy())
	}
	max := len(r.Notes)
	if max > 3 {
		max = 3
	}
	for _, note := range r.Notes[:max] {
		fmt.Fprintf(&b, "  note: %s\n", note)
	}
	for i, v := range r.Violations {
		if i >= 3 {
			fmt.Fprintf(&b, "  ... %d more violations\n", len(r.Violations)-3)
			break
		}
		fmt.Fprintf(&b, "  violation: %s\n", v)
	}
	return b.String()
}
