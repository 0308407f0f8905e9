package cli

import (
	"flag"
	"testing"

	"mkbas/internal/bas"
)

func TestBundlesRegisterCanonicalFlagNames(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var out Output
	var pool Pool
	var guard Guard
	out.Register(fs)
	pool.Register(fs)
	guard.Register(fs)
	for _, name := range []string{"json", "q", "workers", "monitor", "demote", "recovery"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if err := fs.Parse([]string{"-json", "-workers", "3", "-demote"}); err != nil {
		t.Fatal(err)
	}
	if !out.JSON || pool.Workers != 3 || !guard.Demote {
		t.Fatalf("parsed values: %+v %+v %+v", out, pool, guard)
	}
	if !guard.MonitorOn() {
		t.Error("-demote must imply the monitor")
	}
}

func TestParsePlatform(t *testing.T) {
	cases := map[string]bas.Platform{
		"minix":          bas.PlatformMinix,
		"MINIX":          bas.PlatformMinix,
		"minix3-acm":     bas.PlatformMinix,
		"minix-vanilla":  bas.PlatformMinixVanilla,
		"minix3-vanilla": bas.PlatformMinixVanilla,
		"sel4":           bas.PlatformSel4,
		"linux":          bas.PlatformLinux,
		"linux-hardened": bas.PlatformLinuxHardened,
	}
	for in, want := range cases {
		got, err := ParsePlatform(in)
		if err != nil || got != want {
			t.Errorf("ParsePlatform(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePlatform("plan9"); err == nil {
		t.Error("unknown platform accepted")
	}
}
