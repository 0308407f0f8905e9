package polcheck

import (
	"fmt"
	"strings"
)

// StructuralFindings runs policy-hygiene lint over a graph: results are
// warnings and infos, never violations, because structure alone does not
// prove an attack — but each one is a place where the policy grants more (or
// less) than the architecture needs.
//
//   - isolated subject: a subject with no flow edges in or out and no kill
//     authority cannot participate in the system; the grant set and the
//     process set disagree;
//   - wildcard grant: an "mt*" edge authorises all 64 message types where
//     the scenario needs a handful — the over-broad-ACL smell the paper's
//     matrix avoids by enumerating types per pair;
//   - broad sender: a subject that can send into more than half the
//     channels/subjects in the graph concentrates authority the way the
//     Linux root account does.
func StructuralFindings(g *Graph) []Finding {
	var out []Finding

	// Count IPC destinations per subject and find isolated subjects.
	incoming := make(map[Node]bool)
	for _, n := range g.Nodes() {
		for _, e := range g.FlowsFrom(n) {
			incoming[e.To] = true
		}
	}
	var ipcTargets int
	for _, n := range g.Nodes() {
		if n.Kind != KindSubject {
			ipcTargets++
		}
	}
	subjects := g.Subjects()
	if ipcTargets == 0 {
		// Direct subject→subject graphs (MINIX ACM): destinations are the
		// other subjects.
		ipcTargets = len(subjects) - 1
	}

	for _, name := range subjects {
		n := Subject(name)
		flows := g.FlowsFrom(n)
		if len(flows) == 0 && !incoming[n] && len(g.kills[name]) == 0 {
			out = append(out, Finding{
				Property: "isolated_subject",
				Check:    fmt.Sprintf("isolated_subject(%s)", name),
				Severity: SeverityWarning,
				Detail: fmt.Sprintf(
					"%s has no IPC authority in or out; it cannot participate in the system", name),
			})
		}
		for _, e := range flows {
			for _, l := range e.Labels {
				if l == "mt*" {
					out = append(out, Finding{
						Property: "wildcard_grant",
						Check:    fmt.Sprintf("wildcard_grant(%s, %s)", name, e.To.Name),
						Severity: SeverityWarning,
						Detail: fmt.Sprintf(
							"%s may send every message type to %s (%s); enumerate the types the scenario needs",
							name, e.To.Name, e.Origin),
					})
				}
			}
		}
		if targets := g.SendTargets(name); ipcTargets > 1 && len(targets) > ipcTargets/2 {
			names := make([]string, len(targets))
			for i, t := range targets {
				names[i] = t.Name
			}
			out = append(out, Finding{
				Property: "broad_sender",
				Check:    fmt.Sprintf("broad_sender(%s)", name),
				Severity: SeverityInfo,
				Detail: fmt.Sprintf(
					"%s can send to %d of %d IPC destinations: %s",
					name, len(targets), ipcTargets, strings.Join(names, ", ")),
			})
		}
	}
	return out
}
