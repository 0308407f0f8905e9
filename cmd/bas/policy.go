package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"mkbas/internal/aadl"
	"mkbas/internal/bas"
	"mkbas/internal/camkes"
	"mkbas/internal/core"
	"mkbas/internal/machine"
	"mkbas/internal/polcheck"
)

// loadModel parses an AADL model file and picks the system implementation
// to compile: the named one, or the model's only one.
func loadModel(path, system string) (*aadl.Package, string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	pkg, err := aadl.Parse(string(src))
	if err != nil {
		return nil, "", err
	}
	if system == "" {
		if len(pkg.Systems) != 1 {
			return nil, "", fmt.Errorf("model has %d system implementations; pick one with -system", len(pkg.Systems))
		}
		system = pkg.Systems[0].Name
	}
	return pkg, system, nil
}

// aadlCmd is the AADL compiler of Section IV: it parses a model of the BAS
// control architecture and emits the access control matrix in its tabular
// form (acm), the C source the paper compiles into the MINIX kernel (c), or
// the CAmkES ADL assembly for the seL4 build (camkes).
func aadlCmd(fs *flag.FlagSet) func([]string) error {
	system := get[string](fs, "system")
	emit := get[string](fs, "emit")
	lint := get[bool](fs, "lint")
	return func(args []string) error {
		if len(args) != 1 {
			return fmt.Errorf("usage: bas aadl [-system name] [-emit acm|c|camkes] [-lint] <model.aadl>")
		}
		pkg, sysName, err := loadModel(args[0], *system)
		if err != nil {
			return err
		}
		switch *emit {
		case "acm":
			m, err := aadl.GenerateACM(pkg, sysName)
			if err != nil {
				return err
			}
			fmt.Printf("-- access control matrix for %s (%s)\n", sysName, pkg.Name)
			fmt.Print(m.String())
		case "c":
			out, err := aadl.GenerateC(pkg, sysName)
			if err != nil {
				return err
			}
			fmt.Print(out)
		case "camkes":
			topo, err := aadl.GenerateCAmkES(pkg, sysName)
			if err != nil {
				return err
			}
			fmt.Print(topo.RenderCAmkES(sysName))
		default:
			return fmt.Errorf("unknown -emit %q", *emit)
		}
		if *lint {
			findings, err := aadl.Lint(pkg, sysName)
			if err != nil {
				return err
			}
			fmt.Printf("-- lint: %d finding(s)\n", len(findings))
			for _, f := range findings {
				fmt.Println(f.String())
			}
		}
		return nil
	}
}

// platformCase is one policy graph plus the verdict the paper's outcome
// table expects for it under the scenario properties.
type platformCase struct {
	label      string
	graph      *polcheck.Graph
	expectPass bool
}

// policyCmd is the cross-platform IPC policy static analyzer: it normalises
// the MINIX access control matrix, the seL4 CapDL capability distribution
// and the Linux DAC queue-permission model into one access graph and proves
// (or refutes) the scenario's security properties without booting a kernel.
// With the built-in property set, every verdict must match the paper's
// outcome table.
func policyCmd(fs *flag.FlagSet) func([]string) error {
	scenario := get[string](fs, "scenario")
	aadlPath := get[string](fs, "aadl")
	system := get[string](fs, "system")
	propsPath := get[string](fs, "props")
	jsonOut := get[bool](fs, "json")
	lint := get[bool](fs, "lint")
	audit := get[bool](fs, "audit")
	runFor := get[time.Duration](fs, "run")
	strict := get[bool](fs, "strict")
	allowPath := get[string](fs, "allow")
	tenant := get[bool](fs, "tenant")
	return func([]string) error {
		props := bas.ScenarioProperties()
		checkExpectations := *propsPath == ""
		if *propsPath != "" {
			text, err := os.ReadFile(*propsPath)
			if err != nil {
				return err
			}
			if props, err = polcheck.ParseProperties(string(text)); err != nil {
				return err
			}
		}

		var cases []platformCase
		switch {
		case *aadlPath != "":
			pkg, sysName, err := loadModel(*aadlPath, *system)
			if err != nil {
				return err
			}
			m, err := aadl.GenerateACM(pkg, sysName)
			if err != nil {
				return err
			}
			g := polcheck.FromMatrix(m)
			g.Platform = "aadl-acm:" + sysName
			cases = []platformCase{{label: g.Platform, graph: g, expectPass: true}}
		case *scenario == "tempcontrol":
			var err error
			if cases, err = tempcontrolCases(*tenant); err != nil {
				return err
			}
		case *scenario == "":
			return fmt.Errorf("pick -scenario tempcontrol or -aadl <model>")
		default:
			return fmt.Errorf("unknown scenario %q (have: tempcontrol)", *scenario)
		}

		var reports []*polcheck.Report
		mismatches := 0
		for _, c := range cases {
			report := polcheck.CheckProperties(c.graph, props)
			if *lint {
				report.Add(polcheck.StructuralFindings(c.graph)...)
			}
			report.Platform = c.label
			reports = append(reports, report)
			if checkExpectations && report.Pass() != c.expectPass {
				mismatches++
			}
		}
		if *jsonOut {
			out, err := json.MarshalIndent(reports, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(out))
		} else {
			for _, r := range reports {
				fmt.Print(r.Text())
				fmt.Println()
			}
		}

		if *audit {
			if err := runAudit(*runFor, *jsonOut, *strict, *allowPath, *tenant); err != nil {
				return err
			}
		}
		if checkExpectations {
			if mismatches > 0 {
				return fmt.Errorf("%d platform verdict(s) deviate from the paper's outcome table", mismatches)
			}
			if !*jsonOut {
				fmt.Println("verdicts match the paper's outcome table: microkernel policies hold, Linux DAC does not")
			}
		}
		return nil
	}
}

// tempcontrolCases builds the scenario's policy graphs for every platform
// with the paper's expected verdicts: both microkernel policies satisfy the
// properties; the Linux same-account and root-escalated deployments violate
// them; the hardened unique-account deployment passes statically until root
// bypasses DAC.
func tempcontrolCases(tenant bool) ([]platformCase, error) {
	spec, err := camkes.GenerateSpec(bas.ScenarioAssembly(bas.DefaultScenario(), nil))
	if err != nil {
		return nil, fmt.Errorf("generating capdl spec: %w", err)
	}
	dac := func(label string, hardened, webRoot, expectPass bool) platformCase {
		g := polcheck.FromDAC(bas.LinuxScenarioDAC(hardened, webRoot))
		g.Platform = label
		return platformCase{label: label, graph: g, expectPass: expectPass}
	}
	cases := []platformCase{
		{label: "minix-acm", graph: polcheck.FromPolicy(core.ScenarioPolicy()), expectPass: true},
		{label: "sel4-capdl", graph: polcheck.FromCapDL(spec), expectPass: true},
		dac("linux-dac-default", false, false, false),
		dac("linux-dac-root", false, true, false),
		dac("linux-dac-hardened", true, false, true),
		dac("linux-dac-hardened-root", true, true, false),
	}
	if tenant {
		// The tenant-gateway-extended matrix must satisfy the same property
		// set: the gateway's in-band grants do not open web→plant paths.
		cases = append(cases, platformCase{
			label:      "minix-acm-tenant",
			graph:      polcheck.FromPolicy(core.ScenarioPolicyWithTenantGateway()),
			expectPass: true,
		})
	}
	return cases, nil
}

// runAudit boots the MINIX scenario, runs it for a stretch of virtual time,
// and diffs the matrix against the IPC usage the board recorded. The run is
// sliced: the live log is folded into an aggregate and reset between
// slices, so usage gathered across several runs audits as one corpus.
//
// In strict mode the audit is a lint gate, not an advisory report: every
// unused grant must be covered by the allowlist (each line an accepted
// unused_grant(...) check), and allowlist entries the audit no longer
// produces are themselves errors — the allowlist must shrink with the
// policy, or it rots into a bypass.
func runAudit(runFor time.Duration, jsonOut, strict bool, allowPath string, tenant bool) error {
	cfg := bas.DefaultScenario()
	tb := bas.NewTestbed(cfg)
	policy := core.ScenarioPolicy()
	label := "minix scenario"
	if tenant {
		// Audit under the tenant-gateway-extended matrix: the gateway is a
		// host-side subject that never performs board IPC itself, so its
		// grants audit as unused by construction — the allowlist records the
		// rationale for each one.
		policy = core.ScenarioPolicyWithTenantGateway()
		label = "minix scenario (tenant-gateway matrix)"
	}
	if _, err := bas.Deploy(bas.PlatformMinix, tb, cfg, bas.DeployOptions{Policy: policy}); err != nil {
		return err
	}
	const slices = 2
	combined := machine.NewIPCLog()
	for i := 0; i < slices; i++ {
		tb.Machine.Run(runFor / slices)
		combined.Merge(tb.Machine.IPC())
		tb.Machine.IPC().Reset()
	}
	findings := polcheck.AuditMatrix(policy.IPC, combined)
	if jsonOut {
		out, err := json.MarshalIndent(findings, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	} else {
		fmt.Printf("least-privilege audit: %s, %s of virtual time over %d slices, %d unused grant(s)\n",
			label, runFor, slices, len(findings))
		for _, f := range findings {
			fmt.Println(f.String())
		}
	}
	if !strict {
		return nil
	}
	allowed, err := loadAllowlist(allowPath)
	if err != nil {
		return err
	}
	var unexpected []string
	seen := make(map[string]bool, len(findings))
	for _, f := range findings {
		seen[f.Check] = true
		if !allowed[f.Check] {
			unexpected = append(unexpected, f.Check)
		}
	}
	var stale []string
	for check := range allowed {
		if !seen[check] {
			stale = append(stale, check)
		}
	}
	sort.Strings(stale)
	for _, check := range unexpected {
		fmt.Fprintf(os.Stderr, "bas policy: unallowed unused grant: %s\n", check)
	}
	for _, check := range stale {
		fmt.Fprintf(os.Stderr, "bas policy: stale allowlist entry (grant now used or removed): %s\n", check)
	}
	if len(unexpected) > 0 || len(stale) > 0 {
		return fmt.Errorf("least-privilege lint failed: %d unallowed grant(s), %d stale allowlist entr(ies)",
			len(unexpected), len(stale))
	}
	if !jsonOut {
		fmt.Printf("least-privilege lint: all %d unused grant(s) covered by allowlist\n", len(findings))
	}
	return nil
}

// loadAllowlist reads an audit allowlist: one accepted check string per
// line, blank lines and #-comments ignored. An empty path means an empty
// allowlist (every finding fails strict mode).
func loadAllowlist(path string) (map[string]bool, error) {
	out := make(map[string]bool)
	if path == "" {
		return out, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "unused_grant(") || !strings.HasSuffix(line, ")") {
			return nil, fmt.Errorf("%s:%d: allowlist entry %q is not an unused_grant(...) check", path, i+1, line)
		}
		out[line] = true
	}
	return out, nil
}
