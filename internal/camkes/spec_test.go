package camkes

import (
	"errors"
	"testing"
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/sel4"
	"mkbas/internal/vnet"
)

// richAssembly exercises every capability-bearing construct GenerateSpec
// models: RPC, events, devices, and network ports.
func richAssembly() *Assembly {
	server := &Component{
		Name:     "server",
		Priority: 6,
		Provides: map[string]Handler{
			"svc": func(rt *Runtime, method uint64, args Words, badge sel4.Badge) (Words, error) {
				return Words{}, nil
			},
		},
		Consumes: []string{"tick"},
		Devices:  []machine.DeviceID{"sensor0"},
	}
	client := &Component{
		Name:     "client",
		Priority: 7,
		Uses:     []string{"svc"},
		Emits:    []string{"tick"},
		NetPorts: []vnet.Port{8080},
		Run:      func(rt *Runtime) {},
	}
	return &Assembly{
		Components:       []*Component{server, client},
		Connections:      []Connection{{FromComp: "client", FromIface: "svc", ToComp: "server", ToIface: "svc"}},
		EventConnections: []Connection{{FromComp: "client", FromIface: "tick", ToComp: "server", ToIface: "tick"}},
	}
}

// TestGenerateSpecIsPureAndDeterministic: the spec derives from the assembly
// alone, so repeated generation must render identically.
func TestGenerateSpecIsPureAndDeterministic(t *testing.T) {
	first, err := GenerateSpec(richAssembly())
	if err != nil {
		t.Fatalf("GenerateSpec: %v", err)
	}
	for i := 0; i < 3; i++ {
		again, err := GenerateSpec(richAssembly())
		if err != nil {
			t.Fatalf("GenerateSpec: %v", err)
		}
		if again.Render() != first.Render() {
			t.Fatalf("GenerateSpec not deterministic:\n%s\nvs\n%s", first.Render(), again.Render())
		}
	}
}

// TestBuildInstallsExactlyTheGeneratedSpec pins the spec-purity refactor:
// Build must install capabilities from the generated spec, so the booted
// system's spec is byte-identical to what static analysis saw — analyzing
// the spec IS analyzing the deployment.
func TestBuildInstallsExactlyTheGeneratedSpec(t *testing.T) {
	assembly := richAssembly()
	want, err := GenerateSpec(assembly)
	if err != nil {
		t.Fatalf("GenerateSpec: %v", err)
	}
	m := machine.New(machine.Config{})
	t.Cleanup(m.Shutdown)
	sys, err := build(m, assembly, BuildConfig{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if sys.Spec().Render() != want.Render() {
		t.Fatalf("built spec diverges from generated spec:\n%s\nvs\n%s",
			sys.Spec().Render(), want.Render())
	}
	// And the kernel's actual capability distribution matches it.
	if err := sys.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	m.Run(100 * time.Millisecond)
}

// TestStructureCoversSpecInputs: an Image serves every assembly of its
// structure, so Build must refuse an assembly whose change to any
// structural field would change the spec or its installation, and must
// accept one that changes only the code threads run or their priorities
// (and install the same spec for it).
func TestStructureCoversSpecInputs(t *testing.T) {
	img, err := Compile(richAssembly())
	if err != nil {
		t.Fatal(err)
	}
	handler := func(rt *Runtime, method uint64, args Words, badge sel4.Badge) (Words, error) {
		return Words{1}, nil
	}
	mutations := map[string]func(a *Assembly){
		"name":          func(a *Assembly) { a.Components[0].Name = "server2" },
		"control":       func(a *Assembly) { a.Components[0].Run = func(rt *Runtime) {} },
		"provides":      func(a *Assembly) { a.Components[0].Provides["extra"] = handler },
		"nil handler":   func(a *Assembly) { a.Components[0].Provides["svc"] = nil },
		"uses":          func(a *Assembly) { a.Components[1].Uses = append(a.Components[1].Uses, "x") },
		"emits":         func(a *Assembly) { a.Components[1].Emits = nil },
		"consumes":      func(a *Assembly) { a.Components[0].Consumes = append(a.Components[0].Consumes, "y") },
		"devices":       func(a *Assembly) { a.Components[0].Devices = []machine.DeviceID{"sensor1"} },
		"ports":         func(a *Assembly) { a.Components[1].NetPorts = []vnet.Port{8081} },
		"order":         func(a *Assembly) { a.Components[0], a.Components[1] = a.Components[1], a.Components[0] },
		"connection":    func(a *Assembly) { a.Connections = append(a.Connections, a.Connections[0]) },
		"event":         func(a *Assembly) { a.EventConnections = nil },
		"quoted fields": func(a *Assembly) { a.Components[1].Uses = []string{`svc" uses["x`} },
	}
	for name, mutate := range mutations {
		a := richAssembly()
		mutate(a)
		m := machine.New(machine.Config{})
		if _, err := Build(m, img, a, BuildConfig{}); !errors.Is(err, ErrBadAssembly) {
			t.Errorf("%s: Build on another structure's image = %v, want ErrBadAssembly", name, err)
		}
		m.Shutdown()
	}

	bodies := richAssembly()
	bodies.Components[0].Provides["svc"] = handler
	bodies.Components[1].Run = func(rt *Runtime) { rt.Sleep(time.Second) }
	bodies.Components[0].Priority++
	m := machine.New(machine.Config{})
	t.Cleanup(m.Shutdown)
	sys, err := Build(m, img, bodies, BuildConfig{})
	if err != nil {
		t.Fatalf("new thread bodies and priorities refused: %v", err)
	}
	want, err := GenerateSpec(bodies)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Spec().Render() != want.Render() {
		t.Fatal("an image installed another spec than its structure compiles to")
	}
	if err := sys.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}
