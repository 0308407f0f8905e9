package aadl

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"mkbas/internal/core"
)

func loadScenario(t *testing.T) *Package {
	t.Helper()
	pkg, err := Parse(TempControl)
	if err != nil {
		t.Fatalf("parsing model: %v", err)
	}
	return pkg
}

func TestParseScenarioModel(t *testing.T) {
	pkg := loadScenario(t)
	if pkg.Name != "TempControl" {
		t.Fatalf("package = %q", pkg.Name)
	}
	if len(pkg.Processes) != 8 {
		t.Fatalf("processes = %d, want 8", len(pkg.Processes))
	}
	sys, ok := pkg.System(TempControlSystem)
	if !ok {
		t.Fatal("system implementation missing")
	}
	if len(sys.Subcomponents) != 8 || len(sys.Connections) != 6 {
		t.Fatalf("subs=%d conns=%d, want 8/6", len(sys.Subcomponents), len(sys.Connections))
	}
	ctrl, _ := pkg.Process("tempProc")
	if ctrl.ACID() != 101 {
		t.Fatalf("tempProc AC_ID = %d, want 101", ctrl.ACID())
	}
	if port, ok := ctrl.Port("mgmt"); !ok || port.Direction != DirIn {
		t.Fatalf("mgmt port wrong: %+v ok=%v", port, ok)
	}
	loader, _ := pkg.Process("scenario")
	if got := loader.Syscalls(); !slices.Equal(got, []string{"fork", "exec", "kill", "set_acid"}) {
		t.Fatalf("loader syscalls = %q", got)
	}
	if !loader.OnKernel("minix") || loader.OnKernel("sel4") || !ctrl.OnKernel("sel4") {
		t.Fatal("Kernels property misread")
	}
	web := sys.Connections[3]
	types := web.MessageTypes()
	if len(types) != 2 || types[0] != 4 || types[1] != 5 {
		t.Fatalf("web connection types = %v, want [4 5]", types)
	}
}

// TestGenerateSyscalls: the Syscalls properties compile to unbudgeted PM
// grants, for processes on MINIX only.
func TestGenerateSyscalls(t *testing.T) {
	pkg := loadScenario(t)
	s, err := GenerateSyscalls(pkg, TempControlSystem)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Subjects(); !slices.Equal(got, []core.ACID{104, 105}) {
		t.Fatalf("granted subjects = %v, want [104 105]", got)
	}
	for _, kind := range []core.SyscallKind{core.SysFork, core.SysExec, core.SysKill, core.SysSetACID} {
		if r := s.Rule(105, kind); !r.Allowed || r.Quota != core.QuotaUnlimited {
			t.Errorf("loader %s = %+v, want unbudgeted grant", kind, r)
		}
		if r := s.Rule(104, kind); r.Allowed != (kind == core.SysFork) {
			t.Errorf("web interface %s = %+v", kind, r)
		}
	}
	if s.Sealed() {
		t.Fatal("grants come back sealed; a deployment cannot budget them")
	}
}

// TestLintScenarioHasNoIsolatedSubject: the loader's whole authority is
// its PM grants (fork, exec, kill, set_acid), so a lint that reads the
// model's grants with its matrix must not call it isolated.
func TestLintScenarioHasNoIsolatedSubject(t *testing.T) {
	findings, err := Lint(loadScenario(t), TempControlSystem)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Property == "isolated_subject" {
			t.Errorf("false positive: %s: %s", f.Check, f.Detail)
		}
	}
}

// TestOmit: an omitted subcomponent leaves every generator's output with
// its connections.
func TestOmit(t *testing.T) {
	pkg := loadScenario(t)
	m, err := GenerateACM(pkg, TempControlSystem, "bacnetGateway", "tenantApiGw")
	if err != nil {
		t.Fatal(err)
	}
	if subjects := m.Subjects(); !slices.Equal(subjects, []core.ACID{100, 101, 102, 103, 104, 105}) {
		t.Fatalf("matrix subjects = %v, want the gateways left out:\n%s", subjects, m)
	}
	topo, err := GenerateCAmkES(pkg, TempControlSystem, "bacnetGateway")
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Components) != 5 || len(topo.Connections) != 4 {
		t.Fatalf("components=%d connections=%d, want 5/4", len(topo.Components), len(topo.Connections))
	}
	if s, _ := GenerateSyscalls(pkg, TempControlSystem, "scenario"); !slices.Equal(s.Subjects(), []core.ACID{104}) {
		t.Fatalf("grants without the loader go to %v, want [104]", s.Subjects())
	}
}

func TestGenerateCOutput(t *testing.T) {
	pkg := loadScenario(t)
	src, err := GenerateC(pkg, TempControlSystem)
	if err != nil {
		t.Fatalf("GenerateC: %v", err)
	}
	header, _, _ := strings.Cut(src, "\n")
	if want := "/* Generated by bas aadl from package TempControl, system temp_control.impl. DO NOT EDIT. */"; header != want {
		t.Errorf("header line = %q, want %q", header, want)
	}
	for _, want := range []string{
		"acm_table",
		"ACM_NR_RULES",
		"{ 100u, 101u, 0x3ULL }",  // sensor -> controller: types {0,1}
		"{ 104u, 101u, 0x31ULL }", // web -> controller: types {0,4,5}
		"tempSensProc -> tempProc",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated C missing %q:\n%s", want, src)
		}
	}
	// Deterministic output.
	src2, _ := GenerateC(pkg, TempControlSystem)
	if src != src2 {
		t.Fatal("GenerateC not deterministic")
	}
}

func TestGenerateCAmkESTopology(t *testing.T) {
	pkg := loadScenario(t)
	topo, err := GenerateCAmkES(pkg, TempControlSystem)
	if err != nil {
		t.Fatalf("GenerateCAmkES: %v", err)
	}
	// The loader and the tenant gateway are not on seL4: no component, and
	// no connection for the gateway.
	var names []string
	for _, c := range topo.Components {
		names = append(names, c.Name)
	}
	if want := []string{"tempProc", "heaterActProc", "alarmProc", "tempSensProc", "webInterface", "bacnetGateway"}; !slices.Equal(names, want) {
		t.Fatalf("components = %q, want %q in model order", names, want)
	}
	if len(topo.Connections) != 5 {
		t.Fatalf("connections = %d, want 5", len(topo.Connections))
	}
	ctrl, _ := topo.Component("tempProc")
	if !slices.Equal(ctrl.Provides, []string{"sensor", "mgmt"}) || !slices.Equal(ctrl.Uses, []string{"heater", "alarm"}) {
		t.Fatalf("tempProc ifaces = %+v", ctrl)
	}
	web, _ := topo.Component("webInterface")
	if len(web.Uses) != 1 || len(web.Provides) != 0 {
		t.Fatalf("webInterface ifaces = %+v, want exactly one uses", web)
	}

	adl := topo.RenderCAmkES(TempControlSystem)
	for _, want := range []string{
		"connection seL4RPCCall c1(from tempSensProc.ctrl, to tempProc.sensor);",
		"component WebInterface webInterface;",
	} {
		if !strings.Contains(adl, want) {
			t.Errorf("ADL missing %q:\n%s", want, adl)
		}
	}
	if strings.Contains(adl, "scenario") || strings.Contains(adl, "tenantApiGw") {
		t.Errorf("ADL names a process seL4 does not boot:\n%s", adl)
	}
}

func TestCommentsAndCaseInsensitivity(t *testing.T) {
	src := `
-- leading comment
PACKAGE Demo
PUBLIC
PROCESS a
FEATURES
  o: OUT EVENT DATA PORT; -- trailing comment
PROPERTIES
  ac_id => 1;
END a;
process b
features
  i: in event data port;
properties
  AC_ID => 2;
end b;
system implementation s.impl
subcomponents
  a: process a;
  b: process b;
connections
  c: port a.o -> b.i { Message_Type => 1; };
end s.impl;
end Demo;
`
	pkg, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	m, err := GenerateACM(pkg, "s.impl")
	if err != nil {
		t.Fatalf("GenerateACM: %v", err)
	}
	if !m.Allows(1, 2, 1) || !m.Allows(2, 1, 0) {
		t.Fatal("case-insensitive model produced wrong matrix")
	}
}

func TestNamespacedProperty(t *testing.T) {
	src := `
package P
public
process a
properties
  BAS_Properties::AC_ID => 9;
end a;
end P;
`
	pkg, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	proc, _ := pkg.Process("a")
	if proc.ACID() != 9 {
		t.Fatalf("namespaced AC_ID = %d, want 9", proc.ACID())
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"garbage", "not aadl at all"},
		{"mismatched end", "package P\npublic\nend Q;"},
		{"bad port", "package P\npublic\nprocess a\nfeatures\n x: sideways port;\nproperties\n AC_ID => 1;\nend a;\nend P;"},
		{"bad char", "package P\npublic\n@\nend P;"},
		{"unclosed list", "package P\npublic\nprocess a\nproperties\n AC_ID => (1, 2;\nend a;\nend P;"},
		{"mixed list", "package P\npublic\nprocess a\nproperties\n Syscalls => (fork, 2);\nend a;\nend P;"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src); err == nil {
				t.Fatalf("accepted %q", tc.src)
			} else {
				var syn *SyntaxError
				if !errors.As(err, &syn) {
					t.Fatalf("err = %T %v, want SyntaxError", err, err)
				}
			}
		})
	}
}

func TestSemanticErrors(t *testing.T) {
	header := "package P\npublic\n"
	procs := `
process a
features
  o: out event data port;
  i: in event data port;
properties
  AC_ID => 1;
end a;
process b
features
  i: in event data port;
properties
  AC_ID => 2;
end b;
`
	cases := []struct {
		name string
		src  string
	}{
		{"missing acid", header + "process x\nend x;\nend P;"},
		{"duplicate acid", header + "process x\nproperties\n AC_ID => 5;\nend x;\nprocess y\nproperties\n AC_ID => 5;\nend y;\nend P;"},
		{"unknown subcomponent type", header + procs + "system implementation s.impl\nsubcomponents\n z: process zz;\nend s.impl;\nend P;"},
		{"unknown port", header + procs + "system implementation s.impl\nsubcomponents\n a: process a;\n b: process b;\nconnections\n c: port a.ghost -> b.i;\nend s.impl;\nend P;"},
		{"direction mismatch", header + procs + "system implementation s.impl\nsubcomponents\n a: process a;\n b: process b;\nconnections\n c: port a.i -> b.i;\nend s.impl;\nend P;"},
		{"type out of range", header + procs + "system implementation s.impl\nsubcomponents\n a: process a;\n b: process b;\nconnections\n c: port a.o -> b.i { Message_Type => 64; };\nend s.impl;\nend P;"},
		{"unknown syscall", header + "process x\nproperties\n AC_ID => 5;\n Syscalls => (fork, reboot);\nend x;\nend P;"},
		{"numeric syscalls", header + "process x\nproperties\n AC_ID => 5;\n Syscalls => (1, 2);\nend x;\nend P;"},
		{"unknown kernel", header + "process x\nproperties\n AC_ID => 5;\n Kernels => (minix, windows);\nend x;\nend P;"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src); err == nil {
				t.Fatal("model accepted")
			} else {
				var sem *SemanticError
				if !errors.As(err, &sem) {
					t.Fatalf("err = %T %v, want SemanticError", err, err)
				}
			}
		})
	}
}

func TestConnectionWithoutTypesRejectedByACMCompiler(t *testing.T) {
	src := `
package P
public
process a
features
  o: out event data port;
properties
  AC_ID => 1;
end a;
process b
features
  i: in event data port;
properties
  AC_ID => 2;
end b;
system implementation s.impl
subcomponents
  a: process a;
  b: process b;
connections
  c: port a.o -> b.i;
end s.impl;
end P;
`
	pkg, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, err := GenerateACM(pkg, "s.impl"); err == nil {
		t.Fatal("ACM generated for untyped connection")
	}
}

func TestGenerateForUnknownSystem(t *testing.T) {
	pkg := loadScenario(t)
	if _, err := GenerateACM(pkg, "nope.impl"); err == nil {
		t.Fatal("unknown system accepted")
	}
	if _, err := GenerateCAmkES(pkg, "nope.impl"); err == nil {
		t.Fatal("unknown system accepted")
	}
}
