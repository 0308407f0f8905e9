// Package cli holds the flag bundles and output epilogues shared by the
// command-line front ends (baslab, basbuilding, basload, basmon,
// bascontrol). Each bundle registers its flags on a FlagSet with the same
// names, defaults, and help text everywhere, so the tools stay mutually
// consistent as flags grow: a -workers or -bench that means one thing in
// baslab cannot quietly mean another in basbuilding or basload.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"mkbas/internal/bas"
	"mkbas/internal/lab"
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

// Pool is the worker-pool bundle: -workers plus the -bench/-bench-out pair.
type Pool struct {
	// Workers is the number of boards in flight at once (1 = serial
	// reference). Defaults to GOMAXPROCS at registration time.
	Workers int
	// Bench, when non-empty, switches the tool into scaling-bench mode over
	// the listed worker counts.
	Bench string
	// BenchOut names the file for the bench report JSON; empty means stdout.
	BenchOut string
}

// Register installs the pool flags on fs.
func (p *Pool) Register(fs *flag.FlagSet) {
	fs.IntVar(&p.Workers, "workers", runtime.GOMAXPROCS(0), "boards in flight at once (1 = serial reference)")
	fs.StringVar(&p.Bench, "bench", "", `comma list of worker counts to benchmark, e.g. "1,2,4,8" (first is the speedup baseline)`)
	fs.StringVar(&p.BenchOut, "bench-out", "", "write the bench report JSON to this file (default stdout)")
}

// BenchCounts parses the -bench comma list into worker counts. Empty input
// (bench mode off) parses to nil.
func (p *Pool) BenchCounts() ([]int, error) {
	if p.Bench == "" {
		return nil, nil
	}
	var counts []int
	for _, part := range strings.Split(p.Bench, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
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

// WriteBenchReport is the shared bench epilogue: write the report JSON to
// outPath (or stdout when empty), summarise the points on stderr with the
// tool's throughput unit ("shards/s", "rooms/s"), and turn a determinism
// violation — the merged report differing across worker counts — into an
// error, so bench mode doubles as a regression gate wherever it runs.
func WriteBenchReport(rep *lab.BenchReport, outPath, unit string) error {
	out, err := rep.JSON()
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, out, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench report written to %s\n", outPath)
		for _, p := range rep.Points {
			// Request-oriented benches (basload) headline requests/s; the
			// board-oriented tools headline shard throughput.
			rate := p.ShardsPerSec
			if p.RequestsPerSec > 0 {
				rate = p.RequestsPerSec
			}
			fmt.Fprintf(os.Stderr, "  workers=%d %8.1fms %10.0f %s speedup=%.2fx\n",
				p.Workers, p.ElapsedMS, rate, unit, p.Speedup)
		}
	} else if _, err := os.Stdout.Write(out); err != nil {
		return err
	}
	if !rep.Identical {
		return fmt.Errorf("determinism violated: merged report differed across worker counts")
	}
	return nil
}

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
