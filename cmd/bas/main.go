// Command bas is the repo's one front end: every experiment of the paper
// reproduction is a subcommand over one shared flag table, so a flag name
// means the same thing, with the same default, wherever it appears.
//
// Usage:
//
//	bas control -platform sel4 -fail-heater-at 20m -duration 90m   closed-loop trace (E3)
//	bas control -platform sel4 -bacnet -bacnet-key s3cret
//	bas mon -platform minix -json                 observability report (E9)
//	bas mon -platform linux -chrome trace.json    Chrome trace-event export
//	bas mon -platform sel4 -action kill-controller -root
//	bas mon -platform minix -faults crash-sensor -duration 1h      E10 chaos run
//	bas mon -platform minix -api-requests 2000    tenant traffic on one board (E16)
//	bas attack                                    attack outcome matrix (E1)
//	bas attack -platforms all -model both         with the ablation platforms
//	bas attack -platforms minix3-acm -actions fork-bomb -quota 5   E8
//	bas attack -actions api -demote               tenant-tier attacks (E16)
//	bas lab -workers 8                            sharded E1 campaign
//	bas lab -faults crash-sensor -sweep "platforms=paper;actions=none"
//	bas building -rooms 16 -secure even           building fleet (E11)
//	bas building -busfaults partition-failover -standby   E15 failover
//	bas load -requests 200000 -json               tenant API load campaign (E16)
//	bas policy -scenario tempcontrol              static policy proofs
//	bas policy -scenario tempcontrol -audit -strict -allow polcheck.allow
//	bas aadl -emit c internal/aadl/tempcontrol.aadl   AADL compiler
//
// Run "bas <subcommand> -h" for a subcommand's flags. The lab, building,
// load and mon subcommands also take the host-side profiling flags (-perf,
// -perf-trace, -cpuprofile, ...).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// command is one subcommand: setup registers its flags on fs and returns
// the body, which runs once the flags are parsed and gets the positional
// arguments.
type command struct {
	name, summary string
	setup         func(fs *flag.FlagSet) func(args []string) error
}

var commands = []command{
	{"control", "run the temperature-control scenario and print its behaviour trace (E3)", controlCmd},
	{"mon", "run one board and print its observability report (E9, E10, E12)", monCmd},
	{"attack", "print the attack outcome matrix (E1, E8, E16)", attackCmd},
	{"lab", "run a sharded campaign over a parameter sweep and print the merged report", labCmd},
	{"building", "run the multi-room building fleet (E11, E15)", buildingCmd},
	{"load", "drive the tenant API load campaign (E16)", loadCmd},
	{"policy", "check the IPC policy properties statically on every platform", policyCmd},
	{"aadl", "compile an AADL model to the access control matrix, C, or CAmkES", aadlCmd},
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run executes the subcommand args name and returns the exit code: 0 on
// success, 1 when the subcommand fails, 2 on bad usage.
func run(args []string, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		fs := flag.NewFlagSet("bas "+c.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		body := c.setup(fs)
		if err := fs.Parse(args[1:]); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return 2
		}
		if err := body(fs.Args()); err != nil {
			fmt.Fprintf(stderr, "bas %s: %v\n", c.name, err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "bas: unknown subcommand %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: bas <subcommand> [flags]\n\nsubcommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "\nRun \"bas <subcommand> -h\" for its flags.")
}
