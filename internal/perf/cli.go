package perf

import (
	"fmt"
	"os"
	"runtime/pprof"
)

// CLI bundles the standard profiling options of the campaign commands
// (bas lab, building, load and mon): the -perf phase table, the Chrome
// host-trace export, and Go pprof wiring. The bas command's flag table
// fills the fields; then:
//
//	if err := prof.Start(); err != nil { ... }
//	... pass prof.Profiler() into lab/building/attack options ...
//	if err := prof.Finish(); err != nil { ... }
//
// The phase table goes to stderr by default so it never perturbs a
// command's stdout report (the bytes check.sh goldens compare); -perf-out
// redirects it to a file.
type CLI struct {
	Enabled    bool
	Out        string
	Timings    bool
	JSON       bool
	TracePath  string
	TraceNorm  bool
	CPUProfile string
	MemProfile string

	prof    *Profiler
	cpuFile *os.File
}

// Active reports whether any perf collection was requested.
func (c *CLI) Active() bool { return c.Enabled || c.TracePath != "" }

// Start builds the profiler (when requested) and begins CPU profiling (when
// requested). Call after flag parsing, before the campaign runs.
func (c *CLI) Start() error {
	if c.Active() {
		c.prof = New(Options{Timeline: c.TracePath != ""})
	}
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return fmt.Errorf("perf: cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("perf: cpuprofile: %w", err)
		}
		c.cpuFile = f
	}
	return nil
}

// Profiler returns the campaign profiler, nil when collection is off — safe
// to pass into options either way (every perf scope is nil-safe).
func (c *CLI) Profiler() *Profiler { return c.prof }

// Finish stops CPU profiling, writes the heap profile, and emits the phase
// table and Chrome trace. Call once, after the campaign completes.
func (c *CLI) Finish() error {
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := c.cpuFile.Close(); err != nil {
			return fmt.Errorf("perf: cpuprofile: %w", err)
		}
		c.cpuFile = nil
	}
	if c.MemProfile != "" {
		f, err := os.Create(c.MemProfile)
		if err != nil {
			return fmt.Errorf("perf: memprofile: %w", err)
		}
		// The heap profile snapshots live objects; campaigns have already
		// quiesced here, so no runtime.GC is forced — the default profile
		// rate covers allocation sites regardless.
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("perf: memprofile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("perf: memprofile: %w", err)
		}
	}
	if c.prof == nil {
		return nil
	}
	if c.TracePath != "" {
		trace, err := c.prof.ChromeTrace(c.TraceNorm)
		if err != nil {
			return fmt.Errorf("perf: trace: %w", err)
		}
		if err := os.WriteFile(c.TracePath, append(trace, '\n'), 0o644); err != nil {
			return fmt.Errorf("perf: trace: %w", err)
		}
	}
	if !c.Enabled {
		return nil
	}
	snap := c.prof.Snapshot(c.Timings)
	var out []byte
	if c.JSON {
		var err error
		out, err = snap.JSON()
		if err != nil {
			return fmt.Errorf("perf: %w", err)
		}
	} else {
		out = []byte(snap.Text())
	}
	if c.Out != "" {
		if err := os.WriteFile(c.Out, out, 0o644); err != nil {
			return fmt.Errorf("perf: %w", err)
		}
		return nil
	}
	_, err := os.Stderr.Write(out)
	return err
}
