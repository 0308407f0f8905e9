package capdl

import (
	"errors"
	"strings"
	"testing"

	"mkbas/internal/machine"
	"mkbas/internal/sel4"
)

func sampleSpec() *Spec {
	s := &Spec{}
	s.AddObject("ep_ctrl", sel4.KindEndpoint)
	s.AddObject("dev_sensor", sel4.KindDevice)
	s.AddCap("web", CapSpec{Slot: 10, Object: "ep_ctrl", Rights: sel4.CapWrite | sel4.CapGrant, Badge: 104})
	s.AddCap("driver", CapSpec{Slot: 1, Object: "ep_ctrl", Rights: sel4.CapRead})
	s.AddCap("driver", CapSpec{Slot: 40, Object: "dev_sensor", Rights: sel4.RightsRW})
	return s
}

func TestRenderDeterministic(t *testing.T) {
	s := sampleSpec()
	first := s.Render()
	for i := 0; i < 5; i++ {
		if got := s.Render(); got != first {
			t.Fatal("Render not deterministic")
		}
	}
	for _, want := range []string{
		"ep_ctrl = ep",
		"dev_sensor = device",
		"10: ep_ctrl (-wg, badge: 104)",
		"40: dev_sensor (rw-, badge: 0)",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("render missing %q:\n%s", want, first)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	s := sampleSpec()
	parsed, err := Parse(s.Render())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if parsed.Render() != s.Render() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", s.Render(), parsed.Render())
	}
}

func TestParseToleratesCommentsAndBlankLines(t *testing.T) {
	text := `
# a comment
objects {
  e1 = ep

  t1 = tcb
}
caps {
  thread {
    3: e1 (rw-, badge: 9)
  }
}
`
	s, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	tcb := s.TCB("thread")
	if tcb == nil || len(tcb.Caps) != 1 || tcb.Caps[0].Badge != 9 {
		t.Fatalf("parsed %+v", s)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"objects {\n  garbage line without equals\n}",
		"objects {\n  x = nosuchkind\n}",
		"caps {\n  t {\n    notanumber: obj (rw-, badge: 0)\n  }\n}",
		"caps {\n  t {\n    1: obj (zz-, badge: 0)\n  }\n}",
		"caps {\n  t {\n    1: obj (rw-, badge: abc)\n  }\n}",
		"caps {\n  t {\n    1: obj missingparens\n  }\n}",
		"caps {\n  t {\n    -1: obj (rw-, badge: 0)\n  }\n}",
		"caps {\n  t {\n    4294967296: obj (rw-, badge: 0)\n  }\n}",
		"floating text",
	}
	for _, text := range cases {
		if _, err := Parse(text); !errors.Is(err, ErrParse) {
			t.Errorf("Parse(%q) err = %v, want ErrParse", text, err)
		}
	}
}

// buildKernel boots a tiny kernel matching sampleSpec.
func buildKernel(t *testing.T) (*sel4.Kernel, Binding, func()) {
	t.Helper()
	m := machine.New(machine.Config{})
	k := sel4.NewKernel(m, sel4.Config{})
	ep := k.CreateEndpoint("ctrl")
	dev := k.CreateDevice("sensor")
	web := k.CreateThread("web", 7, func(api *sel4.API) {})
	driver := k.CreateThread("driver", 7, func(api *sel4.API) {})
	if err := k.InstallCap(web, 10, sel4.EndpointCap(ep, sel4.CapWrite|sel4.CapGrant, 104)); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallCap(driver, 1, sel4.EndpointCap(ep, sel4.CapRead, 0)); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallCap(driver, 40, sel4.DeviceCap(dev, sel4.RightsRW)); err != nil {
		t.Fatal(err)
	}
	bind := Binding{
		Objects: map[string]sel4.ObjID{"ep_ctrl": ep, "dev_sensor": dev},
		TCBs:    map[string]sel4.ObjID{"web": web, "driver": driver},
	}
	return k, bind, m.Shutdown
}

func TestVerifyExactMatch(t *testing.T) {
	k, bind, done := buildKernel(t)
	defer done()
	if err := Verify(sampleSpec(), k, bind); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyDetectsMissingCap(t *testing.T) {
	k, bind, done := buildKernel(t)
	defer done()
	spec := sampleSpec()
	spec.AddCap("web", CapSpec{Slot: 99, Object: "ep_ctrl", Rights: sel4.CapRead})
	err := Verify(spec, k, bind)
	if !errors.Is(err, ErrVerify) || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("err = %v, want missing-cap verify error", err)
	}
}

func TestVerifyDetectsWrongRightsAndBadge(t *testing.T) {
	k, bind, done := buildKernel(t)
	defer done()
	spec := sampleSpec()
	spec.TCB("web").Caps[0].Badge = 999
	if err := Verify(spec, k, bind); !errors.Is(err, ErrVerify) {
		t.Fatalf("badge mismatch not caught: %v", err)
	}
	spec = sampleSpec()
	spec.TCB("driver").Caps[0].Rights = sel4.RightsRWG
	if err := Verify(spec, k, bind); !errors.Is(err, ErrVerify) {
		t.Fatalf("rights mismatch not caught: %v", err)
	}
}

func TestVerifyDetectsUnboundNames(t *testing.T) {
	k, bind, done := buildKernel(t)
	defer done()
	spec := sampleSpec()
	spec.AddCap("ghost-thread", CapSpec{Slot: 0, Object: "ep_ctrl", Rights: sel4.CapRead})
	if err := Verify(spec, k, bind); !errors.Is(err, ErrVerify) {
		t.Fatalf("unbound thread not caught: %v", err)
	}
	spec = sampleSpec()
	spec.TCB("web").Caps[0].Object = "ghost-object"
	if err := Verify(spec, k, bind); !errors.Is(err, ErrVerify) {
		t.Fatalf("unbound object not caught: %v", err)
	}
}

func TestVerifyDetectsExtraCapability(t *testing.T) {
	k, bind, done := buildKernel(t)
	defer done()
	// The kernel grows a capability the spec never declared.
	if err := k.InstallCap(bind.TCBs["web"], 200, sel4.TCBCap(bind.TCBs["driver"], sel4.CapWrite)); err != nil {
		t.Fatal(err)
	}
	err := Verify(sampleSpec(), k, bind)
	if !errors.Is(err, ErrVerify) || !strings.Contains(err.Error(), "EXTRA") {
		t.Fatalf("extra capability not caught: %v", err)
	}
}

func TestSpecTCBLookup(t *testing.T) {
	s := sampleSpec()
	if s.TCB("web") == nil || s.TCB("nobody") != nil {
		t.Fatal("TCB lookup wrong")
	}
}

// TestNotificationRoundTrip locks the parser's notification support: a spec
// declaring a notification object must survive Render -> Parse unchanged
// (regression for parseKind rejecting "notification").
func TestNotificationRoundTrip(t *testing.T) {
	s := &Spec{}
	s.AddObject("ntfn_alarm", sel4.KindNotification)
	s.AddCap("web", CapSpec{Slot: 3, Object: "ntfn_alarm", Rights: sel4.CapWrite, Badge: 2})
	rendered := s.Render()
	if !strings.Contains(rendered, "ntfn_alarm = notification") {
		t.Fatalf("render missing notification object:\n%s", rendered)
	}
	parsed, err := Parse(rendered)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if parsed.Render() != rendered {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", rendered, parsed.Render())
	}
}

// TestVerifyReportsCapsOfError covers the error path where a spec thread is
// bound to an object ID the kernel does not recognise as a TCB: Verify must
// report the thread by name instead of panicking or silently passing.
func TestVerifyReportsCapsOfError(t *testing.T) {
	k, bind, done := buildKernel(t)
	defer done()
	// Rebind "web" to the endpoint's object ID — a live object, but not a TCB.
	bind.TCBs["web"] = bind.Objects["ep_ctrl"]
	err := Verify(sampleSpec(), k, bind)
	if !errors.Is(err, ErrVerify) || !strings.Contains(err.Error(), `thread "web"`) {
		t.Fatalf("err = %v, want verify error naming thread web", err)
	}
}

// TestVerifyMismatchNamesExpectation: a rights mismatch must print both what
// the kernel holds and what the spec wants, so the report is actionable.
func TestVerifyMismatchNamesExpectation(t *testing.T) {
	k, bind, done := buildKernel(t)
	defer done()
	spec := sampleSpec()
	spec.TCB("driver").Caps[1].Rights = sel4.CapWrite
	err := Verify(spec, k, bind)
	if !errors.Is(err, ErrVerify) {
		t.Fatalf("err = %v, want ErrVerify", err)
	}
	for _, want := range []string{"driver slot 40", "have", "want dev_sensor"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("verify error missing %q: %v", want, err)
		}
	}
}

// FuzzParse feeds spec text to Parse. Whatever the text, it must not panic,
// and a spec it accepts must round-trip: its rendering parses again and
// renders to the same text. The seeds under testdata/fuzz/FuzzParse are the
// seL4 scenario's rendered spec and malformed cap lines.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := Parse(text)
		if err != nil {
			return
		}
		out := spec.Render()
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("rendering of an accepted spec rejected: %v\n%s", err, out)
		}
		if got := again.Render(); got != out {
			t.Fatalf("rendering re-parses to a different spec:\n--- first\n%s\n--- again\n%s", out, got)
		}
	})
}
