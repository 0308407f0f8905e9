package polcheck

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"mkbas/internal/capdl"
	"mkbas/internal/core"
	"mkbas/internal/machine"
	"mkbas/internal/sel4"
)

// testMatrix is a three-subject chain a→b→c plus an unrelated loner.
func testMatrix(t *testing.T) *core.Matrix {
	t.Helper()
	m := core.NewMatrix()
	m.Name(1, "a").Name(2, "b").Name(3, "c").Name(4, "loner")
	m.Allow(1, 2, 10)
	m.Allow(2, 3, 11)
	return m.Seal()
}

func TestFromMatrixEdges(t *testing.T) {
	g := FromMatrix(testMatrix(t))
	if g.Platform != "minix-acm" {
		t.Fatalf("platform = %q", g.Platform)
	}
	flows := g.FlowsFrom(Subject("a"))
	if len(flows) != 1 || flows[0].To != Subject("b") {
		t.Fatalf("flows from a = %+v", flows)
	}
	if got := flows[0].Labels; len(got) != 1 || got[0] != "mt10" {
		t.Fatalf("labels = %v", got)
	}
}

func TestFromMatrixWildcard(t *testing.T) {
	m := core.NewMatrix()
	m.Name(1, "a").Name(2, "b")
	m.AllowMask(1, 2, core.MaskAll)
	g := FromMatrix(m.Seal())
	flows := g.FlowsFrom(Subject("a"))
	if len(flows) != 1 || len(flows[0].Labels) != 1 || flows[0].Labels[0] != "mt*" {
		t.Fatalf("wildcard flows = %+v", flows)
	}
}

func TestReachModes(t *testing.T) {
	g := FromMatrix(testMatrix(t))
	// Direct: a reaches b (one hop) but must NOT flow through b to c.
	if _, ok := g.Reachable("a", "b", ReachDirect); !ok {
		t.Fatal("a should reach b directly")
	}
	if _, ok := g.Reachable("a", "c", ReachDirect); ok {
		t.Fatal("a must not reach c directly: the only route is mediated by b")
	}
	// Transitive: the information-flow closure includes c.
	path, ok := g.Reachable("a", "c", ReachTransitive)
	if !ok {
		t.Fatal("a should reach c transitively")
	}
	if want := "a -[mt10]-> b -[mt11]-> c"; path.String() != want {
		t.Fatalf("path = %q, want %q", path.String(), want)
	}
	if got := g.ReachableSubjects("a", ReachTransitive); len(got) != 2 {
		t.Fatalf("transitive reach of a = %v", got)
	}
	if got := g.Reach("loner", ReachTransitive); len(got) != 0 {
		t.Fatalf("loner reaches %v", got)
	}
	if got := g.Reach("no-such-subject", ReachDirect); len(got) != 0 {
		t.Fatalf("unknown subject reaches %v", got)
	}
}

func TestReachThroughChannel(t *testing.T) {
	g := NewGraph("test")
	g.AddFlow(Subject("w"), Channel("q"), []string{"send"}, "t")
	g.AddFlow(Channel("q"), Subject("r"), []string{"recv"}, "t")
	path, ok := g.Reachable("w", "r", ReachDirect)
	if !ok {
		t.Fatal("w should reach r through the queue in direct mode")
	}
	if want := "w -[send]-> q -[recv]-> r"; path.String() != want {
		t.Fatalf("path = %q", path.String())
	}
}

func TestFromCapDLKillAndDeviceEdges(t *testing.T) {
	spec := &capdl.Spec{}
	spec.AddObject("ep_srv_rpc", sel4.KindEndpoint)
	spec.AddObject("tcb_victim", sel4.KindTCB)
	spec.AddObject("dev_x", sel4.KindDevice)
	spec.AddCap("attacker", capdl.CapSpec{Slot: 1, Object: "ep_srv_rpc", Rights: sel4.CapWrite})
	spec.AddCap("attacker", capdl.CapSpec{Slot: 2, Object: "tcb_victim", Rights: sel4.CapWrite})
	spec.AddCap("srv.rpc", capdl.CapSpec{Slot: 0, Object: "ep_srv_rpc", Rights: sel4.CapRead})
	spec.AddCap("srv", capdl.CapSpec{Slot: 3, Object: "dev_x", Rights: sel4.RightsRW})
	g := FromCapDL(spec)

	// Thread names collapse to components: "srv.rpc" and "srv" are one subject.
	if subs := g.Subjects(); len(subs) != 3 { // attacker, srv, victim
		t.Fatalf("subjects = %v", subs)
	}
	if _, ok := g.Reachable("attacker", "srv", ReachDirect); !ok {
		t.Fatal("attacker should reach srv via the endpoint")
	}
	if origin, ok := g.CanKill("attacker", "victim"); !ok || origin == "" {
		t.Fatal("TCB write cap must yield a kill edge")
	}
	if _, ok := g.CanKill("srv", "victim"); ok {
		t.Fatal("srv holds no TCB cap")
	}
	// Device edges exist both ways for an RW cap.
	devFlows := g.FlowsFrom(Subject("srv"))
	foundDev := false
	for _, e := range devFlows {
		if e.To == Device("dev_x") {
			foundDev = true
		}
	}
	if !foundDev {
		t.Fatalf("srv device flows missing: %+v", devFlows)
	}
	// Device targets do not count toward the IPC surface.
	if targets := g.SendTargets("srv"); len(targets) != 0 {
		t.Fatalf("srv send targets = %v", targets)
	}
}

func TestCapDLSubjectOf(t *testing.T) {
	for in, want := range map[string]string{
		"web":       "web",
		"ctrl.mgmt": "ctrl",
		"a.b.c":     "a",
		".weird":    ".weird", // leading dot: no component prefix to strip
		"tcb_x":     "tcb_x",
	} {
		if got := CapDLSubjectOf(in); got != want {
			t.Errorf("CapDLSubjectOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFromDACRootBypass(t *testing.T) {
	model := &DACModel{
		Subjects: []DACSubject{
			{Name: "root", UID: 0, GID: 0},
			{Name: "alice", UID: 1, GID: 10},
			{Name: "bob", UID: 2, GID: 20},
		},
		Queues: []DACObject{
			{Name: "/q", OwnerUID: 2, OwnerGID: 20, Mode: 0o600},
		},
	}
	g := FromDAC(model)
	// Only the owner and root pass the DAC check on a 0600 queue.
	if _, ok := g.Reachable("alice", "bob", ReachDirect); ok {
		t.Fatal("alice must not reach bob's private queue")
	}
	if _, ok := g.Reachable("root", "bob", ReachDirect); !ok {
		t.Fatal("root bypasses DAC")
	}
	if _, ok := g.CanKill("root", "alice"); !ok {
		t.Fatal("root can kill anyone")
	}
	if _, ok := g.CanKill("alice", "bob"); ok {
		t.Fatal("different uids cannot kill each other")
	}
}

func TestPropertyChecks(t *testing.T) {
	g := FromMatrix(testMatrix(t))
	cases := []struct {
		prop Property
		want Severity
	}{
		{DenyPath{From: "a", To: "b"}, SeverityViolation},
		{DenyPath{From: "a", To: "c"}, SeverityOK}, // mediated only
		{DenyPath{From: "loner", To: "c"}, SeverityOK},
		{AllowPath{From: "a", To: "b"}, SeverityOK},
		{AllowPath{From: "a", To: "c"}, SeverityViolation}, // mediated does not satisfy allow
		{NoKillAuthority{Subject: "a", Target: "b"}, SeverityOK},
		{OnlyEndpoint{Subject: "a", Max: 1}, SeverityOK},
		{OnlyEndpoint{Subject: "a", Max: 0}, SeverityViolation},
	}
	for _, tc := range cases {
		f := tc.prop.Check(g)
		if f.Severity != tc.want {
			t.Errorf("%s: severity = %s, want %s (%s)", tc.prop.Name(), f.Severity, tc.want, f.Detail)
		}
	}
}

func TestDenyPathViolationCarriesWitness(t *testing.T) {
	g := FromMatrix(testMatrix(t))
	f := DenyPath{From: "a", To: "b"}.Check(g)
	if len(f.Path) != 2 || f.Path[0] != "a" || f.Path[1] != "b" {
		t.Fatalf("witness path = %v", f.Path)
	}
}

func TestParseProperties(t *testing.T) {
	props, err := ParseProperties(`
# the scenario contract
deny_path(web, heater)
allow_path(sensor, ctrl)
no_kill_authority(web, ctrl)
only_endpoint(web, 1)
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 4 {
		t.Fatalf("parsed %d properties", len(props))
	}
	if props[0].Name() != "deny_path(web, heater)" {
		t.Fatalf("props[0] = %s", props[0].Name())
	}
	if props[3].Name() != "only_endpoint(web, 1)" {
		t.Fatalf("props[3] = %s", props[3].Name())
	}
}

func TestParsePropertiesErrors(t *testing.T) {
	for _, bad := range []string{
		"deny_path(a)",           // arity
		"deny_path(a, b, c)",     // arity
		"frob(a, b)",             // unknown
		"only_endpoint(web, x)",  // non-numeric
		"only_endpoint(web, -1)", // negative
		"deny_path a, b",         // no parens
		"deny_path(, b)",         // empty arg
	} {
		if _, err := ParseProperties(bad); !errors.Is(err, ErrProperty) {
			t.Errorf("ParseProperties(%q) = %v, want ErrProperty", bad, err)
		}
	}
}

func TestCheckPropertiesReport(t *testing.T) {
	g := FromMatrix(testMatrix(t))
	r := CheckProperties(g, []Property{
		DenyPath{From: "a", To: "c"},
		DenyPath{From: "a", To: "b"},
	})
	if r.Pass() {
		t.Fatal("report should fail: a→b is an unmediated path")
	}
	if v := r.Violations(); len(v) != 1 {
		t.Fatalf("violations = %+v", v)
	}
	if !strings.Contains(r.Text(), "FAIL") {
		t.Fatalf("text = %q", r.Text())
	}
	raw, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Platform != "minix-acm" || len(back.Findings) != 2 {
		t.Fatalf("round-tripped report = %+v", back)
	}
}

func TestAuditMatrix(t *testing.T) {
	m := core.NewMatrix()
	m.Name(1, "a").Name(2, "b")
	m.Allow(1, 2, 10, 11)
	m.Seal()
	log := machine.NewIPCLog()
	log.Record(log.Edges().Intern("a", "b", "mt10"))

	findings := AuditMatrix(m, log)
	if len(findings) != 1 {
		t.Fatalf("findings = %+v", findings)
	}
	if findings[0].Check != "unused_grant(a, b, mt11)" {
		t.Fatalf("check = %q", findings[0].Check)
	}
	if findings[0].Severity != SeverityWarning {
		t.Fatalf("severity = %s", findings[0].Severity)
	}
}

func TestAuditMatrixWildcardGrant(t *testing.T) {
	m := core.NewMatrix()
	m.Name(1, "a").Name(2, "b").Name(3, "c")
	m.AllowMask(1, 2, core.MaskAll)
	m.AllowMask(1, 3, core.MaskAll)
	m.Seal()
	log := machine.NewIPCLog()
	log.Record(log.Edges().Intern("a", "b", "mt7")) // any traffic marks the wildcard used

	findings := AuditMatrix(m, log)
	if len(findings) != 1 || findings[0].Check != "unused_grant(a, c, mt*)" {
		t.Fatalf("findings = %+v", findings)
	}
}

func TestStructuralFindings(t *testing.T) {
	m := core.NewMatrix()
	m.Name(1, "a").Name(2, "b").Name(3, "ghost")
	m.AllowMask(1, 2, core.MaskAll)
	m.Seal()
	findings := StructuralFindings(FromMatrix(m))
	var haveWildcard, haveIsolated bool
	for _, f := range findings {
		switch f.Property {
		case "wildcard_grant":
			haveWildcard = true
		case "isolated_subject":
			if !strings.Contains(f.Check, "ghost") {
				t.Fatalf("wrong isolated subject: %s", f.Check)
			}
			haveIsolated = true
		}
		if f.Severity == SeverityViolation {
			t.Fatalf("lint must not emit violations: %+v", f)
		}
	}
	if !haveWildcard || !haveIsolated {
		t.Fatalf("findings = %+v", findings)
	}

	// Kill authority is participation: a subject whose only grant is a
	// kill (a loader's PM grants) is not isolated.
	g := FromMatrix(m)
	g.AddKill("ghost", "a", "test")
	for _, f := range StructuralFindings(g) {
		if f.Property == "isolated_subject" {
			t.Fatalf("a subject holding kill authority was called isolated: %s", f.Check)
		}
	}
}
