package camkes

import (
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
	sys, err := Build(m, assembly, BuildConfig{})
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
