// Command basbuilding runs the multi-room building fleet (experiment E11):
// N controller boards — any platform mix, legacy or secure-proxied room by
// room — joined by an inter-board BAS bus, supervised by a head-end BMS, and
// optionally attacked laterally from a compromised room-0 web interface. The
// report is byte-identical at any -workers value.
//
// Usage:
//
//	basbuilding                                   # 16-room paper-mix building, attacked
//	basbuilding -rooms 8 -mix linux -secure none  # homogeneous legacy building
//	basbuilding -rooms 16 -secure even -attack=false -json
//	basbuilding -faults 2=crash-sensor            # E11 fault case: room 2 loses its sensor
//	basbuilding -busfaults bus-partition          # partition room 1 off the bus mid-run
//	basbuilding -busfaults partition-failover -standby   # E15: partition + primary kill + failover
//	basbuilding -sweep "rooms=4,16;mix=paper;attack=both" -workers 4
//	basbuilding -rooms 64 -perf                   # host-side phase profile on stderr
//	basbuilding -perf-trace trace.json            # per-worker timeline for chrome://tracing
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mkbas/internal/attack"
	"mkbas/internal/cli"
	"mkbas/internal/lab"
	"mkbas/internal/perf"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "basbuilding:", err)
		os.Exit(1)
	}
}

func run() error {
	rooms := flag.Int("rooms", 16, "number of rooms (one controller board each)")
	mix := flag.String("mix", "paper", `platform rotation: "paper", "all", one platform, or names joined by "+"`)
	secure := flag.String("secure", "even", `secure-proxy coverage: "all", "none", "even", "odd", or room indices joined by "+"`)
	attackOn := flag.Bool("attack", true, "run the room-0 lateral-movement attacker")
	settle := flag.Duration("settle", 30*time.Minute, "virtual settle time before the attack window")
	window := flag.Duration("window", 90*time.Minute, "virtual attack window after settle")
	faultsFlag := flag.String("faults", "", `comma list of room=plan fault assignments, e.g. "2=crash-sensor"`)
	busFaults := flag.String("busfaults", "", `bus-level fault plan name, e.g. "bus-partition" or "partition-failover"`)
	standby := flag.Bool("standby", false, "attach a standby head-end that takes over when the primary goes silent")
	api := flag.Bool("api", false, "attach the building-scale tenant API tier with deterministic per-round occupant traffic (E16)")
	seed := flag.Int64("seed", 0, "base scenario seed (room i runs seed+i)")
	sweepFlag := flag.String("sweep", "", `building campaign instead of a single run: axis=values clauses over rooms, mix, secure, attack, monitor, busfaults, standby, api (plus settle=, window=)`)
	var out cli.Output
	var pool cli.Pool
	var guard cli.Guard
	out.Register(flag.CommandLine)
	pool.Register(flag.CommandLine)
	guard.Register(flag.CommandLine)
	var prof perf.CLI
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if err := prof.Start(); err != nil {
		return err
	}
	if *sweepFlag != "" {
		return runSweep(*sweepFlag, pool.Workers, out.JSON, out.Quiet, &prof)
	}

	spec := attack.BuildingSpec{
		Rooms:     *rooms,
		Attack:    *attackOn,
		Workers:   pool.Workers,
		Settle:    *settle,
		Window:    *window,
		Recovery:  guard.Recovery,
		Seed:      *seed,
		BusFaults: *busFaults,
		Standby:   *standby,
		TenantAPI: *api,
		// The raw flag, not MonitorOn(): the spec is embedded in the JSON
		// report verbatim, and the Demote-implies-Monitor promotion happens
		// inside ExecuteBuilding.
		Monitor: guard.Monitor,
		Demote:  guard.Demote,
	}
	mixPlatforms, err := lab.Mix(*mix).Platforms()
	if err != nil {
		return err
	}
	spec.Mix = mixPlatforms
	spec.Secure, err = lab.SecurePattern(*secure).Rooms(*rooms)
	if err != nil {
		return err
	}
	if *faultsFlag != "" {
		spec.Faults, err = parseFaults(*faultsFlag)
		if err != nil {
			return err
		}
	}

	spec.Profiler = prof.Profiler()
	rep, err := attack.ExecuteBuilding(spec)
	if err != nil {
		return err
	}
	if err := prof.Finish(); err != nil {
		return err
	}
	if out.JSON {
		data, jerr := marshal(rep)
		if jerr != nil {
			return jerr
		}
		_, werr := os.Stdout.Write(data)
		return werr
	}
	fmt.Print(attack.FormatBuildingMatrix(rep))
	return nil
}

// parseFaults parses "room=plan" comma-list assignments.
func parseFaults(spec string) (map[int]string, error) {
	out := make(map[int]string)
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		roomStr, plan, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("fault assignment %q is not room=plan", item)
		}
		room, err := strconv.Atoi(strings.TrimSpace(roomStr))
		if err != nil || room < 0 {
			return nil, fmt.Errorf("fault assignment %q: bad room index", item)
		}
		out[room] = strings.TrimSpace(plan)
	}
	return out, nil
}

func runSweep(spec string, workers int, jsonOut, quiet bool, prof *perf.CLI) error {
	sweep, err := lab.ParseBuildingSweep(spec)
	if err != nil {
		return err
	}
	opts := lab.BuildingOptions{Workers: workers, Profiler: prof.Profiler()}
	if !quiet {
		opts.Progress = func(c lab.BuildingCase, r *attack.BuildingReport) {
			fmt.Fprintf(os.Stderr, "done %-48s alarm=%v compromised=%v\n", c, r.Alarm, r.Compromised())
		}
	}
	res, err := lab.RunBuilding(sweep, opts)
	if err != nil {
		return err
	}
	if err := prof.Finish(); err != nil {
		return err
	}
	if jsonOut {
		out, jerr := res.JSON()
		if jerr != nil {
			return jerr
		}
		_, werr := os.Stdout.Write(out)
		return werr
	}
	for _, shard := range res.Cases {
		fmt.Printf("== %s\n%s\n", shard.Case, attack.FormatBuildingMatrix(shard.Report))
	}
	return nil
}

// marshal renders a report as indented JSON with a trailing newline.
func marshal(v any) ([]byte, error) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
