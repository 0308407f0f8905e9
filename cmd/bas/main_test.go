package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	"mkbas/internal/attack"
	"mkbas/internal/bas"
	"mkbas/internal/lab"
)

// TestFlagTable registers every subcommand's flags and checks that a flag
// name has one type, one default and one help text wherever it appears,
// all of them the table's, and that the table holds no unused entry.
func TestFlagTable(t *testing.T) {
	seen := make(map[string]string)
	where := make(map[string]string)
	for _, c := range commands {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.setup(fs)
		fs.VisitAll(func(f *flag.Flag) {
			d, ok := flagTable[f.Name]
			if !ok {
				t.Errorf("%s: flag -%s is not in the flag table", c.name, f.Name)
				return
			}
			if f.DefValue != fmt.Sprint(d.def) || f.Usage != d.usage {
				t.Errorf("%s: flag -%s registered as (%q, %q), table says (%q, %q)",
					c.name, f.Name, f.DefValue, f.Usage, fmt.Sprint(d.def), d.usage)
			}
			sig := fmt.Sprintf("%T %q %q", f.Value, f.DefValue, f.Usage)
			if prev, ok := seen[f.Name]; ok && prev != sig {
				t.Errorf("flag -%s differs: %s in %s, %s in %s", f.Name, prev, where[f.Name], sig, c.name)
			}
			seen[f.Name], where[f.Name] = sig, c.name
		})
	}
	for name := range flagTable {
		if _, ok := seen[name]; !ok {
			t.Errorf("flag table entry -%s is registered by no subcommand", name)
		}
	}
}

func TestUnknownSubcommand(t *testing.T) {
	for _, args := range [][]string{nil, {"frobnicate"}, {"-platform", "minix"}} {
		var stderr bytes.Buffer
		if code := run(args, &stderr); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
		if !strings.Contains(stderr.String(), "usage: bas <subcommand>") {
			t.Errorf("run(%q) printed no usage:\n%s", args, stderr.String())
		}
		for _, c := range commands {
			if !strings.Contains(stderr.String(), c.name) {
				t.Errorf("run(%q) usage does not list %s", args, c.name)
			}
		}
	}
}

func TestBadFlagExitsNonzero(t *testing.T) {
	if code := run([]string{"mon", "-no-such-flag"}, io.Discard); code != 2 {
		t.Errorf("unknown flag exited %d, want 2", code)
	}
	if code := run([]string{"mon", "-platform", "plan9"}, io.Discard); code != 1 {
		t.Errorf("unknown platform exited %d, want 1", code)
	}
}

// TestPlatformSpellings resolves every accepted spelling at the four
// places a platform name enters: -platform (control, mon), attack
// -platforms, a lab sweep's platforms axis and a building's -mix.
func TestPlatformSpellings(t *testing.T) {
	cases := map[string]bas.Platform{
		"minix":          bas.PlatformMinix,
		"MINIX":          bas.PlatformMinix,
		"minix3-acm":     bas.PlatformMinix,
		"minix-vanilla":  bas.PlatformMinixVanilla,
		"minix3-vanilla": bas.PlatformMinixVanilla,
		"sel4":           bas.PlatformSel4,
		"seL4":           bas.PlatformSel4,
		"linux":          bas.PlatformLinux,
		"Linux":          bas.PlatformLinux,
		"linux-hardened": bas.PlatformLinuxHardened,
	}
	entries := map[string]func(string) (bas.Platform, error){
		"-platform": bas.ParsePlatform,
		"attack -platforms": func(s string) (bas.Platform, error) {
			ps, err := attackPlatforms(s)
			return first(ps, err)
		},
		"lab -sweep platforms=": func(s string) (bas.Platform, error) {
			sweep, err := lab.ParseSweep("platforms=" + s)
			return first(sweep.Platforms, err)
		},
		"building -mix": func(s string) (bas.Platform, error) {
			return first(lab.Mix(s).Platforms())
		},
	}
	for entry, resolve := range entries {
		for spelling, want := range cases {
			if got, err := resolve(spelling); err != nil || got != want {
				t.Errorf("%s %q = %q, %v; want %q", entry, spelling, got, err, want)
			}
		}
		if _, err := resolve("plan9"); err == nil {
			t.Errorf("%s accepted an unknown platform", entry)
		}
	}
}

func first(ps []bas.Platform, err error) (bas.Platform, error) {
	if err != nil || len(ps) != 1 {
		return "", fmt.Errorf("resolved %v, %v", ps, err)
	}
	return ps[0], nil
}

// TestAttackDemoteReachesOnlyAPICases expands a mixed board/API action list
// under -demote: each (platform, model, action) must appear once, demoted
// exactly when it is an API attack.
func TestAttackDemoteReachesOnlyAPICases(t *testing.T) {
	for _, demote := range []bool{false, true} {
		for _, actions := range []string{"all", "api", "kill-controller,api-token-replay,fork-bomb"} {
			sweep, err := attackSweep("paper", actions, "both", 5, demote)
			if err != nil {
				t.Fatal(err)
			}
			want := len(sweep.Platforms) * len(sweep.Models) * len(sweep.Actions)
			got := 0
			for _, c := range sweep.Expand() {
				if !attackCase(c, demote) {
					continue
				}
				got++
				spec := c.Spec()
				if spec.Demote != (demote && attack.IsAPIAction(c.Action)) {
					t.Errorf("demote=%v %s: spec.Demote = %v", demote, c, spec.Demote)
				}
				if spec.ForkQuota != 0 && (attack.IsAPIAction(c.Action) || c.Platform != bas.PlatformMinix) {
					t.Errorf("demote=%v %s: fork quota %d off a MINIX board attack", demote, c, spec.ForkQuota)
				}
			}
			if got != want {
				t.Errorf("demote=%v actions=%s: %d matrix cases, want %d", demote, actions, got, want)
			}
		}
	}
}
