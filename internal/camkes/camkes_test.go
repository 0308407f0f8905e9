package camkes

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mkbas/internal/capdl"
	"mkbas/internal/machine"
	"mkbas/internal/sel4"
)

// calcAssembly builds a tiny client/server assembly: an "adder" component
// provides "math", a "user" control component calls it.
func calcAssembly(calls *[]uint64, results *[]Words, errs *[]error) *Assembly {
	adder := &Component{
		Name:     "adder",
		Priority: 6,
		Provides: map[string]Handler{
			"math": func(rt *Runtime, method uint64, args Words, badge sel4.Badge) (Words, error) {
				*calls = append(*calls, method)
				switch method {
				case 1: // add
					return Words{args[0] + args[1]}, nil
				case 2: // badge echo
					return Words{uint64(badge)}, nil
				default:
					return Words{}, errors.New("no such method")
				}
			},
		},
	}
	user := &Component{
		Name:     "user",
		Priority: 7,
		Uses:     []string{"math"},
		Run: func(rt *Runtime) {
			r, err := rt.Call("math", 1, 20, 22)
			*results = append(*results, r)
			*errs = append(*errs, err)
			r, err = rt.Call("math", 2)
			*results = append(*results, r)
			*errs = append(*errs, err)
			_, err = rt.Call("math", 99)
			*errs = append(*errs, err)
		},
	}
	return &Assembly{
		Components: []*Component{adder, user},
		Connections: []Connection{
			{FromComp: "user", FromIface: "math", ToComp: "adder", ToIface: "math"},
		},
	}
}

func TestRPCCallThroughGlue(t *testing.T) {
	m := machine.New(machine.Config{})
	var calls []uint64
	var results []Words
	var errs []error
	sys, err := Build(m, calcAssembly(&calls, &results, &errs), BuildConfig{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(m.Shutdown)
	m.Run(time.Second)

	if len(errs) != 3 {
		t.Fatalf("errs = %v", errs)
	}
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("calls failed: %v", errs)
	}
	if results[0][0] != 42 {
		t.Fatalf("add result = %d, want 42", results[0][0])
	}
	if results[1][0] != 1 {
		t.Fatalf("badge = %d, want connection badge 1", results[1][0])
	}
	var rpcErr *RPCError
	if !errors.As(errs[2], &rpcErr) {
		t.Fatalf("bad method err = %v, want RPCError", errs[2])
	}
	if sys.Kernel().Stats().Calls != 3 {
		t.Fatalf("kernel calls = %d, want 3", sys.Kernel().Stats().Calls)
	}
}

func TestGeneratedCapDLMatchesKernel(t *testing.T) {
	m := machine.New(machine.Config{})
	var calls []uint64
	var results []Words
	var errs []error
	sys, err := Build(m, calcAssembly(&calls, &results, &errs), BuildConfig{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(m.Shutdown)
	if err := sys.Verify(); err != nil {
		t.Fatalf("Verify at boot: %v", err)
	}
	m.Run(time.Second)
	if err := sys.Verify(); err != nil {
		t.Fatalf("Verify after run: %v", err)
	}
}

func TestVerifyCatchesExtraCapability(t *testing.T) {
	m := machine.New(machine.Config{})
	var calls []uint64
	var results []Words
	var errs []error
	sys, err := Build(m, calcAssembly(&calls, &results, &errs), BuildConfig{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(m.Shutdown)
	// Sneak an undeclared capability into the user thread, as a compromised
	// bootstrap would.
	userTCB, ok := sys.TCB("user")
	if !ok {
		t.Fatal("no user tcb")
	}
	adderTCB, _ := sys.TCB("adder.math")
	if err := sys.Kernel().InstallCap(userTCB, 200, sel4.TCBCap(adderTCB, sel4.CapWrite)); err != nil {
		t.Fatal(err)
	}
	err = sys.Verify()
	if !errors.Is(err, capdl.ErrVerify) {
		t.Fatalf("Verify = %v, want ErrVerify", err)
	}
	if !strings.Contains(err.Error(), "EXTRA") {
		t.Fatalf("error should flag the extra capability: %v", err)
	}
}

func TestCapDLRenderParseRoundTrip(t *testing.T) {
	m := machine.New(machine.Config{})
	var calls []uint64
	var results []Words
	var errs []error
	sys, err := Build(m, calcAssembly(&calls, &results, &errs), BuildConfig{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(m.Shutdown)
	text := sys.Spec().Render()
	parsed, err := capdl.Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, text)
	}
	if parsed.Render() != text {
		t.Fatalf("round trip mismatch:\n--- original\n%s\n--- reparsed\n%s", text, parsed.Render())
	}
	// The parsed spec must also verify against the kernel.
	if err := capdl.Verify(parsed, sys.Kernel(), sysBinding(sys)); err != nil {
		t.Fatalf("parsed spec verify: %v", err)
	}
}

// sysBinding rebuilds a Binding from the system's public accessors.
func sysBinding(sys *System) capdl.Binding {
	return sys.bind
}

func TestValidateRejectsBadAssemblies(t *testing.T) {
	handler := func(rt *Runtime, method uint64, args Words, badge sel4.Badge) (Words, error) {
		return Words{}, nil
	}
	run := func(rt *Runtime) {}
	cases := []struct {
		name     string
		assembly *Assembly
	}{
		{"duplicate component", &Assembly{Components: []*Component{
			{Name: "x", Run: run}, {Name: "x", Run: run},
		}}},
		{"no threads", &Assembly{Components: []*Component{{Name: "x"}}}},
		{"nil handler", &Assembly{Components: []*Component{
			{Name: "x", Provides: map[string]Handler{"p": nil}},
		}}},
		{"connection from unknown comp", &Assembly{
			Components:  []*Component{{Name: "x", Run: run}},
			Connections: []Connection{{FromComp: "ghost", FromIface: "i", ToComp: "x", ToIface: "p"}},
		}},
		{"connection to missing iface", &Assembly{
			Components: []*Component{
				{Name: "a", Uses: []string{"i"}, Run: run},
				{Name: "b", Provides: map[string]Handler{"other": handler}},
			},
			Connections: []Connection{{FromComp: "a", FromIface: "i", ToComp: "b", ToIface: "p"}},
		}},
		{"unconnected uses", &Assembly{
			Components: []*Component{
				{Name: "a", Uses: []string{"i"}, Run: run},
				{Name: "b", Provides: map[string]Handler{"p": handler}},
			},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := machine.New(machine.Config{})
			defer m.Shutdown()
			if _, err := Build(m, tc.assembly, BuildConfig{}); !errors.Is(err, ErrBadAssembly) {
				t.Fatalf("Build = %v, want ErrBadAssembly", err)
			}
		})
	}
}

func TestTwoClientsDistinguishedByBadge(t *testing.T) {
	m := machine.New(machine.Config{})
	badges := make(map[uint64]int)
	server := &Component{
		Name:     "server",
		Priority: 6,
		Provides: map[string]Handler{
			"svc": func(rt *Runtime, method uint64, args Words, badge sel4.Badge) (Words, error) {
				badges[uint64(badge)]++
				return Words{}, nil
			},
		},
	}
	mkClient := func(name string) *Component {
		return &Component{
			Name:     name,
			Priority: 7,
			Uses:     []string{"svc"},
			Run: func(rt *Runtime) {
				for i := 0; i < 3; i++ {
					rt.Call("svc", 1)
				}
			},
		}
	}
	assembly := &Assembly{
		Components: []*Component{server, mkClient("alice"), mkClient("bob")},
		Connections: []Connection{
			{FromComp: "alice", FromIface: "svc", ToComp: "server", ToIface: "svc"},
			{FromComp: "bob", FromIface: "svc", ToComp: "server", ToIface: "svc"},
		},
	}
	if _, err := Build(m, assembly, BuildConfig{}); err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(m.Shutdown)
	m.Run(time.Second)
	if badges[1] != 3 || badges[2] != 3 {
		t.Fatalf("badge counts = %v, want 3 calls each under badges 1 and 2", badges)
	}
}

func TestInterfaceThreadIsolation(t *testing.T) {
	// A component with two provided interfaces serves them on independent
	// threads: a handler blocking on one interface must not stall the other
	// (the paper's asymmetric-trust argument for seL4RPCCall).
	m := machine.New(machine.Config{})
	slowEntered := false
	var fastReplies int
	server := &Component{
		Name:     "server",
		Priority: 6,
		Provides: map[string]Handler{
			"slow": func(rt *Runtime, method uint64, args Words, badge sel4.Badge) (Words, error) {
				slowEntered = true
				rt.Sleep(time.Hour) // hog this interface thread
				return Words{}, nil
			},
			"fast": func(rt *Runtime, method uint64, args Words, badge sel4.Badge) (Words, error) {
				return Words{7}, nil
			},
		},
	}
	blocker := &Component{
		Name: "blocker", Priority: 7, Uses: []string{"slow"},
		Run: func(rt *Runtime) { rt.Call("slow", 1) },
	}
	prober := &Component{
		Name: "prober", Priority: 7, Uses: []string{"fast"},
		Run: func(rt *Runtime) {
			rt.Sleep(10 * time.Millisecond) // let blocker hit the slow path first
			for i := 0; i < 5; i++ {
				if r, err := rt.Call("fast", 1); err == nil && r[0] == 7 {
					fastReplies++
				}
			}
		},
	}
	assembly := &Assembly{
		Components: []*Component{server, blocker, prober},
		Connections: []Connection{
			{FromComp: "blocker", FromIface: "slow", ToComp: "server", ToIface: "slow"},
			{FromComp: "prober", FromIface: "fast", ToComp: "server", ToIface: "fast"},
		},
	}
	if _, err := Build(m, assembly, BuildConfig{}); err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(m.Shutdown)
	m.Run(time.Minute)
	if !slowEntered {
		t.Fatal("slow handler never entered")
	}
	if fastReplies != 5 {
		t.Fatalf("fast replies = %d, want 5 despite blocked sibling interface", fastReplies)
	}
}

func TestCapDLSpecRenderShape(t *testing.T) {
	m := machine.New(machine.Config{})
	var calls []uint64
	var results []Words
	var errs []error
	sys, err := Build(m, calcAssembly(&calls, &results, &errs), BuildConfig{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(m.Shutdown)
	text := sys.Spec().Render()
	for _, want := range []string{
		"ep_adder_math = ep",
		"adder.math {",
		"0: ep_adder_math (r--, badge: 0)",
		"user {",
		"10: ep_adder_math (-wg, badge: 1)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("spec missing %q:\n%s", want, text)
		}
	}
}
