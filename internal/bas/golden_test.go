package bas

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mkbas/internal/core"
	"mkbas/internal/polcheck"
)

var update = flag.Bool("update", false, "rewrite testdata/certified.golden from the current code")

// renderMinixPolicy writes a MINIX policy in full: its matrix cells, every
// audited-syscall grant with its quota, and its certified graph and verdict.
func renderMinixPolicy(b *strings.Builder, label string, p *core.Policy, c *image) {
	fmt.Fprintf(b, "== %s\n-- matrix\n%s-- syscalls\n", label, p.IPC.String())
	for _, id := range p.Syscalls.Subjects() {
		for _, kind := range []core.SyscallKind{core.SysFork, core.SysKill, core.SysExec, core.SysSetACID} {
			if r := p.Syscalls.Rule(id, kind); r.Allowed {
				fmt.Fprintf(b, "%s %s quota=%d\n", p.IPC.NameOf(id), kind, r.Quota)
			}
		}
	}
	renderCertification(b, c)
}

// renderCertification writes a certified graph and the gate's verdict.
func renderCertification(b *strings.Builder, c *image) {
	fmt.Fprintf(b, "-- graph\n%s-- verdict\n%v\n\n", renderGraph(c.graph), c.verdict)
}

// TestCertifiedGraphsGolden pins every artifact the image table hands a
// deploy: the MINIX policy of each gateway combination and of the
// E8 fork quota, the seL4 CapDL spec with and without the BACnet gateway,
// each hardened Linux DAC contract, and the DAC models of the other
// Linux account layouts. What boots must stay byte-identical
// to testdata/certified.golden; run with -update to rewrite it after a
// deliberate policy change.
func TestCertifiedGraphsGolden(t *testing.T) {
	var b strings.Builder
	for _, bacnet := range []bool{false, true} {
		for _, tenant := range []bool{false, true} {
			a := minixDefault(bacnet, tenant, core.QuotaUnlimited)
			renderMinixPolicy(&b, fmt.Sprintf("minix bacnet=%v tenant=%v", bacnet, tenant), a.policy, &a.image)
		}
	}
	quota := minixDefault(false, false, 5)
	renderMinixPolicy(&b, "minix fork-quota=5", quota.policy, &quota.image)

	for _, bacnet := range []bool{false, true} {
		dep := deployOrFatal(t, PlatformSel4, DefaultScenario(), DeployOptions{Monitor: true, BACnet: BACnetOptions{Enabled: bacnet}})
		fmt.Fprintf(&b, "== sel4 bacnet=%v\n-- capdl\n%s", bacnet, dep.Sel4.Spec().Render())
		renderCertification(&b, &image{graph: dep.graph})
	}

	for _, gateway := range []bool{false, true} {
		for _, tenant := range []bool{false, true} {
			fmt.Fprintf(&b, "== linux gateway=%v tenant=%v\n", gateway, tenant)
			renderCertification(&b, &linuxDefault(gateway, tenant).image)
		}
	}
	// The DAC models bas policy analyzes beside the contracts: the
	// same-account default, and both account layouts with the web
	// interface escalated to root.
	for _, v := range []struct{ hardened, webRoot bool }{{false, false}, {false, true}, {true, true}} {
		g := polcheck.FromDAC(LinuxScenarioDAC(v.hardened, v.webRoot))
		fmt.Fprintf(&b, "== linux-dac hardened=%v web-root=%v\n", v.hardened, v.webRoot)
		renderCertification(&b, &image{graph: g, verdict: checkDeployPolicy(g)})
	}

	path := filepath.Join("testdata", "certified.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("certified artifacts differ from %s (rerun with -update after a deliberate change):\n%s", path, got)
	}
}
