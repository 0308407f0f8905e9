package aadl

import (
	"fmt"

	"mkbas/internal/polcheck"
)

// Lint runs the post-compile static policy checks over one system
// implementation: the generated policy, its access control matrix together
// with its PM grants, is normalised into the unified access graph and
// handed to polcheck's structural lint, and the
// AADL model itself is checked for declared-but-unconnected ports — a port
// with no connection generates no matrix cell, so the process cannot do what
// its type declares, usually a dropped line in the model.
func Lint(pkg *Package, sysName string) ([]polcheck.Finding, error) {
	p, err := GeneratePolicy(pkg, sysName)
	if err != nil {
		return nil, err
	}
	findings := polcheck.StructuralFindings(polcheck.FromPolicy(p))

	sys, _ := pkg.System(sysName) // GeneratePolicy already validated it exists
	for _, sub := range sys.Subcomponents {
		proc, ok := pkg.Process(sub.ProcessType)
		if !ok {
			continue // unreachable after GeneratePolicy
		}
		for _, port := range proc.Ports {
			if portConnected(sys, sub.Name, port.Name) {
				continue
			}
			findings = append(findings, polcheck.Finding{
				Property: "unconnected_port",
				Check:    fmt.Sprintf("unconnected_port(%s.%s)", sub.Name, port.Name),
				Severity: polcheck.SeverityWarning,
				Detail: fmt.Sprintf(
					"%s declares %s port %q (line %d) but system %s never connects it",
					sub.ProcessType, port.Direction, port.Name, port.Line, sysName),
			})
		}
	}
	return findings, nil
}

// portConnected reports whether any connection of sys touches (sub, port) on
// either end.
func portConnected(sys *SystemImpl, sub, port string) bool {
	for _, conn := range sys.Connections {
		if (conn.Src.Component == sub && conn.Src.Port == port) ||
			(conn.Dst.Component == sub && conn.Dst.Port == port) {
			return true
		}
	}
	return false
}
