package aadl

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mkbas/internal/core"
)

func loadScenario(t *testing.T) *Package {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "tempcontrol.aadl"))
	if err != nil {
		t.Fatalf("reading model: %v", err)
	}
	pkg, err := Parse(string(src))
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
	if len(pkg.Processes) != 5 {
		t.Fatalf("processes = %d, want 5", len(pkg.Processes))
	}
	sys, ok := pkg.System("temp_control.impl")
	if !ok {
		t.Fatal("system implementation missing")
	}
	if len(sys.Subcomponents) != 5 || len(sys.Connections) != 4 {
		t.Fatalf("subs=%d conns=%d, want 5/4", len(sys.Subcomponents), len(sys.Connections))
	}
	ctrl, _ := pkg.Process("tempProc")
	if ctrl.ACID() != 101 {
		t.Fatalf("tempProc AC_ID = %d, want 101", ctrl.ACID())
	}
	if port, ok := ctrl.Port("web_in"); !ok || port.Direction != DirIn {
		t.Fatalf("web_in port wrong: %+v ok=%v", port, ok)
	}
	web := sys.Connections[3]
	types := web.MessageTypes()
	if len(types) != 2 || types[0] != 4 || types[1] != 5 {
		t.Fatalf("web connection types = %v, want [4 5]", types)
	}
}

// TestScenarioPolicyMatchesAADL pins the hand-written core.ScenarioPolicy to
// the compiled model (experiment E6): the AADL→ACM compiler regenerates the
// kernel's matrix exactly.
func TestScenarioPolicyMatchesAADL(t *testing.T) {
	pkg := loadScenario(t)
	generated, err := GenerateACM(pkg, "temp_control.impl")
	if err != nil {
		t.Fatalf("GenerateACM: %v", err)
	}
	hand := core.ScenarioPolicy().IPC

	subjects := make(map[core.ACID]bool)
	for _, s := range generated.Subjects() {
		subjects[s] = true
	}
	for _, s := range hand.Subjects() {
		subjects[s] = true
	}
	for src := range subjects {
		for dst := range subjects {
			g, h := generated.Mask(src, dst), hand.Mask(src, dst)
			if g != h {
				t.Errorf("cell %d->%d: generated %v, hand-written %v", src, dst, g.Types(), h.Types())
			}
		}
	}
}

func TestGenerateCOutput(t *testing.T) {
	pkg := loadScenario(t)
	src, err := GenerateC(pkg, "temp_control.impl")
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
	src2, _ := GenerateC(pkg, "temp_control.impl")
	if src != src2 {
		t.Fatal("GenerateC not deterministic")
	}
}

func TestGenerateCAmkESTopology(t *testing.T) {
	pkg := loadScenario(t)
	topo, err := GenerateCAmkES(pkg, "temp_control.impl")
	if err != nil {
		t.Fatalf("GenerateCAmkES: %v", err)
	}
	if len(topo.Connections) != 4 {
		t.Fatalf("connections = %d, want 4", len(topo.Connections))
	}
	ctrl := topo.Components["tempProc"]
	if ctrl == nil {
		t.Fatal("tempProc missing")
	}
	if len(ctrl.Provides) != 2 { // sensor_in, web_in
		t.Fatalf("tempProc provides %v, want 2 interfaces", ctrl.Provides)
	}
	if len(ctrl.Uses) != 2 { // heater_out, alarm_out
		t.Fatalf("tempProc uses %v, want 2 interfaces", ctrl.Uses)
	}
	web := topo.Components["webInterface"]
	if len(web.Uses) != 1 || len(web.Provides) != 0 {
		t.Fatalf("webInterface ifaces = %+v, want exactly one uses", web)
	}

	adl := topo.RenderCAmkES("temp_control.impl")
	for _, want := range []string{
		"connection seL4RPCCall c1(from tempSensProc.sensor_out, to tempProc.sensor_in);",
		"component WebInterface webInterface;",
	} {
		if !strings.Contains(adl, want) {
			t.Errorf("ADL missing %q:\n%s", want, adl)
		}
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
