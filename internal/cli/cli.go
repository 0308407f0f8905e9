// Package cli holds the flag bundles and platform parsing shared by the
// command-line front ends (baslab, basbuilding, basload, basmon,
// bascontrol). Each bundle registers its flags on a FlagSet with the same
// names, defaults, and help text everywhere, so the tools stay mutually
// consistent as flags grow: a -workers or -json that means one thing in
// baslab cannot quietly mean another in basbuilding or basload.
package cli

import (
	"flag"
	"fmt"
	"runtime"
	"strings"

	"mkbas/internal/bas"
)

// Output is the report-destination bundle: -json and -q.
type Output struct {
	// JSON selects machine-readable output on stdout.
	JSON bool
	// Quiet suppresses per-case progress lines on stderr.
	Quiet bool
}

// Register installs the output flags on fs.
func (o *Output) Register(fs *flag.FlagSet) {
	fs.BoolVar(&o.JSON, "json", false, "emit the report as JSON instead of text")
	fs.BoolVar(&o.Quiet, "q", false, "suppress per-case progress lines on stderr")
}

// Pool is the worker-pool bundle: -workers.
type Pool struct {
	// Workers is the number of boards in flight at once (1 = serial
	// reference). Defaults to GOMAXPROCS at registration time.
	Workers int
}

// Register installs the pool flags on fs.
func (p *Pool) Register(fs *flag.FlagSet) {
	fs.IntVar(&p.Workers, "workers", runtime.GOMAXPROCS(0), "boards in flight at once (1 = serial reference)")
}

// Guard is the policy-machinery bundle: -monitor, -demote, -recovery.
type Guard struct {
	// Monitor attaches the online policy monitor (observe-only).
	Monitor bool
	// Demote enables monitor enforcement; implies Monitor.
	Demote bool
	// Recovery enables each platform's optional recovery machinery.
	Recovery bool
}

// Register installs the guard flags on fs.
func (g *Guard) Register(fs *flag.FlagSet) {
	fs.BoolVar(&g.Monitor, "monitor", false, "attach the online policy monitor: every IPC delivery is checked against the certified static access graph")
	fs.BoolVar(&g.Demote, "demote", false, "monitor with enforcement: demote offending subjects to the untrusted origin (implies -monitor)")
	fs.BoolVar(&g.Recovery, "recovery", false, "enable the optional recovery machinery (seL4 monitor, hardened-Linux supervisor)")
}

// MonitorOn reports whether the monitor should attach: directly requested,
// or implied by enforcement.
func (g *Guard) MonitorOn() bool { return g.Monitor || g.Demote }

// ParsePlatform maps the tools' short platform spellings (and the registry's
// own names, accepted verbatim) onto registry platform values.
func ParsePlatform(p string) (bas.Platform, error) {
	switch strings.ToLower(p) {
	case "minix", string(bas.PlatformMinix):
		return bas.PlatformMinix, nil
	case "minix-vanilla", string(bas.PlatformMinixVanilla):
		return bas.PlatformMinixVanilla, nil
	case "sel4":
		return bas.PlatformSel4, nil
	case "linux":
		return bas.PlatformLinux, nil
	case "linux-hardened":
		return bas.PlatformLinuxHardened, nil
	default:
		return "", fmt.Errorf("unknown platform %q (known: minix, minix-vanilla, sel4, linux, linux-hardened)", p)
	}
}
