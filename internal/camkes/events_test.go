package camkes

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/sel4"
)

func TestEventConnectionDelivery(t *testing.T) {
	m := machine.New(machine.Config{})
	var received []sel4.Badge
	consumer := &Component{
		Name:     "sink",
		Priority: 6,
		Consumes: []string{"tick"},
		Run: func(rt *Runtime) {
			for len(received) < 3 {
				word, err := rt.WaitEvent("tick")
				if err != nil {
					return
				}
				received = append(received, word)
			}
		},
	}
	emitter := &Component{
		Name:     "source",
		Priority: 7,
		Emits:    []string{"tick"},
		Run: func(rt *Runtime) {
			for i := 0; i < 3; i++ {
				rt.Sleep(time.Millisecond)
				if err := rt.Emit("tick"); err != nil {
					t.Errorf("emit: %v", err)
				}
			}
		},
	}
	assembly := &Assembly{
		Components: []*Component{consumer, emitter},
		EventConnections: []Connection{
			{FromComp: "source", FromIface: "tick", ToComp: "sink", ToIface: "tick"},
		},
	}
	sys, err := build(m, assembly, BuildConfig{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(m.Shutdown)
	m.Run(time.Second)
	if len(received) != 3 {
		t.Fatalf("received %d events, want 3", len(received))
	}
	for _, w := range received {
		if w != 1 {
			t.Fatalf("badge word = %d, want connection badge 1", w)
		}
	}
	if err := sys.Verify(); err != nil {
		t.Fatalf("CapDL verify with events: %v", err)
	}
	if !strings.Contains(sys.Spec().Render(), "ntfn_sink_tick = notification") {
		t.Fatalf("spec missing notification object:\n%s", sys.Spec().Render())
	}
}

func TestTwoEmittersDistinguishedByBadgeBits(t *testing.T) {
	m := machine.New(machine.Config{})
	var word sel4.Badge
	consumer := &Component{
		Name: "sink", Priority: 6, Consumes: []string{"ev"},
		Run: func(rt *Runtime) {
			rt.Sleep(10 * time.Millisecond) // both emitters fire first
			word, _ = rt.WaitEvent("ev")
		},
	}
	mkEmitter := func(name string) *Component {
		return &Component{
			Name: name, Priority: 7, Emits: []string{"ev"},
			Run: func(rt *Runtime) { rt.Emit("ev") },
		}
	}
	assembly := &Assembly{
		Components: []*Component{consumer, mkEmitter("a"), mkEmitter("b")},
		EventConnections: []Connection{
			{FromComp: "a", FromIface: "ev", ToComp: "sink", ToIface: "ev"},
			{FromComp: "b", FromIface: "ev", ToComp: "sink", ToIface: "ev"},
		},
	}
	if _, err := build(m, assembly, BuildConfig{}); err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(m.Shutdown)
	m.Run(time.Second)
	if word != 0b11 {
		t.Fatalf("word = %b, want both connection bits", word)
	}
}

func TestPollEventNonBlocking(t *testing.T) {
	m := machine.New(machine.Config{})
	var early, late error
	consumer := &Component{
		Name: "sink", Priority: 7, Consumes: []string{"ev"},
		Run: func(rt *Runtime) {
			_, early = rt.PollEvent("ev")
			rt.Sleep(10 * time.Millisecond)
			_, late = rt.PollEvent("ev")
		},
	}
	emitter := &Component{
		Name: "source", Priority: 7, Emits: []string{"ev"},
		Run: func(rt *Runtime) {
			rt.Sleep(time.Millisecond)
			rt.Emit("ev")
		},
	}
	assembly := &Assembly{
		Components: []*Component{consumer, emitter},
		EventConnections: []Connection{
			{FromComp: "source", FromIface: "ev", ToComp: "sink", ToIface: "ev"},
		},
	}
	if _, err := build(m, assembly, BuildConfig{}); err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(m.Shutdown)
	m.Run(time.Second)
	if !errors.Is(early, sel4.ErrWouldBlock) {
		t.Fatalf("early poll = %v, want would-block", early)
	}
	if late != nil {
		t.Fatalf("late poll = %v, want success", late)
	}
}

func TestEventValidation(t *testing.T) {
	run := func(rt *Runtime) {}
	cases := []struct {
		name     string
		assembly *Assembly
	}{
		{"emit without connection", &Assembly{
			Components: []*Component{{Name: "a", Emits: []string{"ev"}, Run: run}},
		}},
		{"connection to non-consumer", &Assembly{
			Components: []*Component{
				{Name: "a", Emits: []string{"ev"}, Run: run},
				{Name: "b", Run: run},
			},
			EventConnections: []Connection{{FromComp: "a", FromIface: "ev", ToComp: "b", ToIface: "ev"}},
		}},
		{"connection from non-emitter", &Assembly{
			Components: []*Component{
				{Name: "a", Run: run},
				{Name: "b", Consumes: []string{"ev"}, Run: run},
			},
			EventConnections: []Connection{{FromComp: "a", FromIface: "ev", ToComp: "b", ToIface: "ev"}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := machine.New(machine.Config{})
			defer m.Shutdown()
			if _, err := build(m, tc.assembly, BuildConfig{}); !errors.Is(err, ErrBadAssembly) {
				t.Fatalf("Build = %v, want ErrBadAssembly", err)
			}
		})
	}
}

func TestRuntimeEventErrors(t *testing.T) {
	m := machine.New(machine.Config{})
	var emitErr, waitErr error
	comp := &Component{
		Name: "lonely", Priority: 7,
		Run: func(rt *Runtime) {
			emitErr = rt.Emit("ghost")
			_, waitErr = rt.WaitEvent("ghost")
		},
	}
	if _, err := build(m, &Assembly{Components: []*Component{comp}}, BuildConfig{}); err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(m.Shutdown)
	m.Run(time.Second)
	if !errors.Is(emitErr, ErrBadAssembly) || !errors.Is(waitErr, ErrBadAssembly) {
		t.Fatalf("errs = %v / %v, want ErrBadAssembly", emitErr, waitErr)
	}
}
