// Command baslab is the sharded experiment campaign runner: it expands a
// parameter sweep into independent virtual-board cases, runs them across a
// worker pool, and prints (or saves) the deterministically merged report —
// whose bytes are identical regardless of worker count.
//
// Usage:
//
//	baslab                                        # full E1: paper platforms × all actions × both models
//	baslab -workers 8                             # same campaign, 8 boards in flight
//	baslab -sweep "platforms=all;plants=all"      # every platform on every plant variant
//	baslab -sweep "platforms=minix3-acm;actions=fork-bomb;quotas=0,5" -json
//	baslab -faults crash-sensor -sweep "platforms=paper;actions=none"   # E10 chaos
//	baslab -faults plan.json                      # operator-authored fault plan
//	baslab -perf -workers 8                       # host-side phase profile on stderr
//	baslab -perf-trace trace.json -cpuprofile cpu.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mkbas/internal/attack"
	"mkbas/internal/cli"
	"mkbas/internal/faultinject"
	"mkbas/internal/lab"
	"mkbas/internal/perf"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "baslab:", err)
		os.Exit(1)
	}
}

// defaultSweep is the paper's full E1 campaign.
const defaultSweep = "platforms=paper;actions=all;models=both"

func run() error {
	sweepFlag := flag.String("sweep", defaultSweep, `sweep spec: semicolon-separated axis=values clauses over platforms, actions, models, plants, quotas, faults, monitor`)
	faultsFlag := flag.String("faults", "", `comma list of fault plans for the chaos axis: builtin names (see faultinject.Names) or paths to plan JSON files`)
	var out cli.Output
	var pool cli.Pool
	out.Register(flag.CommandLine)
	pool.Register(flag.CommandLine)
	var prof perf.CLI
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	sweep, err := lab.ParseSweep(*sweepFlag)
	if err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	if *faultsFlag != "" {
		names, ferr := resolveFaults(*faultsFlag)
		if ferr != nil {
			return ferr
		}
		sweep.Faults = append(sweep.Faults, names...)
		if verr := sweep.Validate(); verr != nil {
			return verr
		}
	}

	opts := lab.Options{Workers: pool.Workers, Profiler: prof.Profiler()}
	if !out.Quiet {
		// Progress callbacks arrive from worker goroutines; stderr writes are
		// independent lines, and ordering is cosmetic.
		opts.Progress = func(c lab.Case, r *attack.Report) {
			fmt.Fprintf(os.Stderr, "done %-58s %s\n", c, r.Verdict())
		}
	}
	res, err := lab.Run(sweep, opts)
	if err != nil {
		return err
	}
	if err := prof.Finish(); err != nil {
		return err
	}
	if out.JSON {
		data, jerr := res.JSON()
		if jerr != nil {
			return jerr
		}
		_, werr := os.Stdout.Write(data)
		return werr
	}
	fmt.Print(res.Text())
	return nil
}

// resolveFaults turns each -faults item into a registered plan name. An item
// that names a readable file is parsed as a plan JSON and registered; anything
// else must be a builtin plan name.
func resolveFaults(spec string) ([]string, error) {
	var names []string
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if data, err := os.ReadFile(item); err == nil {
			plan, perr := faultinject.ParsePlan(data)
			if perr != nil {
				return nil, fmt.Errorf("fault plan %s: %w", item, perr)
			}
			if rerr := faultinject.Register(plan); rerr != nil {
				return nil, fmt.Errorf("fault plan %s: %w", item, rerr)
			}
			names = append(names, plan.Name)
			continue
		}
		names = append(names, item)
	}
	return names, nil
}
