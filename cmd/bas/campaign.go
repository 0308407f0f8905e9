package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"mkbas/internal/attack"
	"mkbas/internal/bas"
	"mkbas/internal/faultinject"
	"mkbas/internal/lab"
	"mkbas/internal/tenantapi/loadgen"
)

// attackCmd regenerates the paper's Section IV-D attack comparison
// (experiment E1): platforms × attacker models × actions run as one lab
// sweep on the lab's worker pool, printed per attacker model as the outcome
// matrix plus the mediation layer that stopped each attack.
func attackCmd(fs *flag.FlagSet) func([]string) error {
	platforms := get[string](fs, "platforms")
	actions := get[string](fs, "actions")
	model := get[string](fs, "model")
	quota := get[int](fs, "quota")
	demote := get[bool](fs, "demote")
	verbose := get[bool](fs, "v")
	return func([]string) error {
		sweep, err := attackSweep(*platforms, *actions, *model, *quota)
		if err != nil {
			return err
		}
		results, err := lab.RunCases(attackCases(sweep, *demote), lab.Options{})
		if err != nil {
			return err
		}
		allAPI := true
		for _, a := range sweep.Actions {
			allAPI = allAPI && attack.IsAPIAction(a)
		}
		for _, m := range sweep.Models {
			label := "attacker model 1: arbitrary code execution in the web interface"
			switch {
			case allAPI && m == lab.ModelRoot:
				label = "attacker model 2: stolen facility-manager credential, outside the building"
			case allAPI:
				label = "attacker model 1: stolen occupant/vendor credential, outside the building"
			case m == lab.ModelRoot:
				label = "attacker model 2: arbitrary code execution + root privilege"
			}
			fmt.Printf("=== %s ===\n", label)
			var reports []*attack.Report
			for _, sr := range results {
				if sr.Case.Model != m {
					continue
				}
				reports = append(reports, sr.Report)
				if *verbose {
					fmt.Println(attack.Summarize(sr.Report))
				}
			}
			fmt.Println(attack.FormatMatrix(reports))
			fmt.Println("mediation (from the security-event stream):")
			for _, r := range reports {
				if r.SecurityEvents.Len() == 0 {
					fmt.Printf("  %-20s %-20s no denial events\n", r.Spec.Platform, r.Spec.Action)
					continue
				}
				fmt.Printf("  %-20s %-20s stopped by %-14s (%d denial events)\n",
					r.Spec.Platform, r.Spec.Action, r.BlockedBy(), r.SecurityEvents.Len())
			}
			fmt.Println()
		}
		fmt.Println(`verdicts: COMPROMISED        = the physical process was jeopardized
          accepted-no-impact = operations were accepted but the plant stayed safe
          BLOCKED            = every malicious operation was denied`)
		return nil
	}
}

// attackSweep expands the attack flags into one validated lab sweep;
// -actions and -model take the sweep grammar's actions and models values.
// The fork quota rides the sweep's quota axis, which reaches only MINIX
// board attacks.
func attackSweep(platforms, actions, model string, quota int) (lab.Sweep, error) {
	sweep, err := lab.ParseSweep("actions=" + actions + ";models=" + model)
	if err != nil {
		return lab.Sweep{}, err
	}
	if sweep.Platforms, err = attackPlatforms(platforms); err != nil {
		return lab.Sweep{}, err
	}
	sweep.Quotas = []int{quota}
	return sweep, sweep.Validate()
}

// attackCases expands the sweep into the matrix's cases, one per
// (platform, model, action). -demote is incident response on the API
// attacks alone: with it each API case runs demoted, and the board cases
// run as they would without it.
func attackCases(sweep lab.Sweep, demote bool) []lab.Case {
	cases := sweep.Expand()
	for i, c := range cases {
		if demote && attack.IsAPIAction(c.Action) {
			cases[i].Monitor = lab.MonitorDemote
		}
	}
	return cases
}

// attackPlatforms expands -platforms: "paper", "all" (each ablation beside
// its headline platform), or a comma list of platform names.
func attackPlatforms(s string) ([]bas.Platform, error) {
	switch s {
	case "paper":
		return bas.AllPlatforms(), nil
	case "all":
		return []bas.Platform{
			bas.PlatformLinux, bas.PlatformLinuxHardened,
			bas.PlatformMinixVanilla, bas.PlatformMinix, bas.PlatformSel4,
		}, nil
	}
	var out []bas.Platform
	for _, part := range strings.Split(s, ",") {
		p, err := bas.ParsePlatform(part)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// defaultSweep is the paper's full E1 campaign.
const defaultSweep = "platforms=paper;actions=all;models=both"

// labCmd is the sharded campaign runner: it expands a parameter sweep into
// independent virtual-board cases, runs them across the worker pool, and
// prints the merged report, whose bytes are identical at any worker count.
func labCmd(fs *flag.FlagSet) func([]string) error {
	sweepSpec := get[string](fs, "sweep")
	faults := get[string](fs, "faults")
	jsonOut := get[bool](fs, "json")
	quiet := get[bool](fs, "q")
	workers := get[int](fs, "workers")
	prof := perfFlags(fs)
	return func([]string) error {
		spec := *sweepSpec
		if spec == "" {
			spec = defaultSweep
		}
		sweep, err := lab.ParseSweep(spec)
		if err != nil {
			return err
		}
		if err := prof.Start(); err != nil {
			return err
		}
		if *faults != "" {
			names, err := resolveFaults(*faults)
			if err != nil {
				return err
			}
			sweep.Faults = append(sweep.Faults, names...)
			if err := sweep.Validate(); err != nil {
				return err
			}
		}
		opts := lab.Options{Workers: *workers, Profiler: prof.Profiler()}
		if !*quiet {
			// Progress callbacks arrive from worker goroutines; stderr
			// writes are independent lines, and ordering is cosmetic.
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
		if *jsonOut {
			return writeJSON(res.JSON())
		}
		fmt.Print(res.Text())
		return nil
	}
}

// resolveFaults turns each -faults item into registered plan names. An item
// that names a readable file is parsed as a plan JSON and registered; anything
// else resolves as a sweep's faults value does: "all" or a builtin plan name.
func resolveFaults(spec string) ([]string, error) {
	var names []string
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		data, err := os.ReadFile(item)
		if err != nil {
			s, err := lab.ParseSweep("faults=" + item)
			if err != nil {
				return nil, err
			}
			names = append(names, s.Faults...)
			continue
		}
		plan, err := faultinject.ParsePlan(data)
		if err == nil {
			err = faultinject.Register(plan)
		}
		if err != nil {
			return nil, fmt.Errorf("fault plan %s: %w", item, err)
		}
		names = append(names, plan.Name)
	}
	return names, nil
}

// buildingCmd runs the multi-room building fleet (experiment E11): N
// controller boards of any platform mix, legacy or secure-proxied room by
// room, on one BAS bus under a head-end BMS, optionally attacked laterally
// from a compromised room-0 web interface. The report is byte-identical at
// any -workers value.
func buildingCmd(fs *flag.FlagSet) func([]string) error {
	rooms := get[int](fs, "rooms")
	mix := get[string](fs, "mix")
	secure := get[string](fs, "secure")
	attackOn := get[bool](fs, "attack")
	settle := get[time.Duration](fs, "settle")
	window := get[time.Duration](fs, "window")
	faults := get[string](fs, "faults")
	busFaults := get[string](fs, "busfaults")
	standby := get[bool](fs, "standby")
	api := get[bool](fs, "api")
	seed := get[int64](fs, "room-seed")
	sweepSpec := get[string](fs, "sweep")
	jsonOut := get[bool](fs, "json")
	quiet := get[bool](fs, "q")
	workers := get[int](fs, "workers")
	monitor := get[bool](fs, "monitor")
	demote := get[bool](fs, "demote")
	recovery := get[bool](fs, "recovery")
	prof := perfFlags(fs)
	return func([]string) error {
		if err := prof.Start(); err != nil {
			return err
		}
		if *sweepSpec != "" {
			sweep, err := lab.ParseBuildingSweep(*sweepSpec)
			if err != nil {
				return err
			}
			opts := lab.BuildingOptions{Workers: *workers, Profiler: prof.Profiler()}
			if !*quiet {
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
			if *jsonOut {
				return writeJSON(res.JSON())
			}
			for _, shard := range res.Cases {
				fmt.Printf("== %s\n%s\n", shard.Case, attack.FormatBuildingMatrix(shard.Report))
			}
			return nil
		}

		spec := attack.BuildingSpec{
			Rooms: *rooms, Attack: *attackOn, Workers: *workers, Settle: *settle, Window: *window,
			Recovery: *recovery, Seed: *seed, BusFaults: *busFaults, Standby: *standby, TenantAPI: *api,
			// The raw flag, not monitor||demote: the spec is embedded in the
			// JSON report verbatim, and ExecuteBuilding does the promotion.
			Monitor: *monitor, Demote: *demote,
			Profiler: prof.Profiler(),
		}
		var err error
		if spec.Mix, err = lab.Mix(*mix).Platforms(); err != nil {
			return err
		}
		if spec.Secure, err = lab.SecurePattern(*secure).Rooms(*rooms); err != nil {
			return err
		}
		if *faults != "" {
			if spec.Faults, err = roomFaults(*faults); err != nil {
				return err
			}
		}
		rep, err := attack.ExecuteBuilding(spec)
		if err != nil {
			return err
		}
		if err := prof.Finish(); err != nil {
			return err
		}
		if *jsonOut {
			out, err := json.MarshalIndent(rep, "", "  ")
			return writeJSON(append(out, '\n'), err)
		}
		fmt.Print(attack.FormatBuildingMatrix(rep))
		return nil
	}
}

// roomFaults parses "room=plan" comma-list assignments.
func roomFaults(spec string) (map[int]string, error) {
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

// loadCmd is the tenant API tier's deterministic load generator: simulated
// occupant/manager/vendor requests in virtual time against shard-local
// gateways, merged into one report whose bytes are identical at any worker
// count.
func loadCmd(fs *flag.FlagSet) func([]string) error {
	requests := get[int](fs, "requests")
	shards := get[int](fs, "shards")
	seed := get[uint64](fs, "seed")
	jsonOut := get[bool](fs, "json")
	workers := get[int](fs, "workers")
	prof := perfFlags(fs)
	return func([]string) error {
		if err := prof.Start(); err != nil {
			return err
		}
		rep, err := loadgen.Run(loadgen.Plan{
			Seed: *seed, Requests: *requests, Shards: *shards,
			Workers: *workers, Profiler: prof.Profiler(),
		})
		if err != nil {
			return err
		}
		if err := prof.Finish(); err != nil {
			return err
		}
		if *jsonOut {
			return writeJSON(rep.JSON())
		}
		fmt.Printf("tenant API load campaign: %d requests, %d shards, seed %#x\n",
			rep.Requests, rep.Plan.Shards, rep.Plan.Seed)
		fmt.Printf("  served %d (%.1f%%), backend setpoint writes %d\n",
			rep.Served, 100*float64(rep.Served)/float64(rep.Requests), rep.BackendWrites)
		fmt.Println("outcomes:")
		names := make([]string, 0, len(rep.Outcomes))
		for name := range rep.Outcomes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-14s %9d\n", name, rep.Outcomes[name])
		}
		fmt.Println("latency (virtual, per route):")
		for _, h := range rep.Histograms {
			if h.Count == 0 {
				continue
			}
			fmt.Printf("  %-24s n=%-9d p50=%6.2fms p95=%6.2fms p99=%6.2fms\n",
				h.Name, h.Count, float64(h.P50Ns)/1e6, float64(h.P95Ns)/1e6, float64(h.P99Ns)/1e6)
		}
		if len(rep.Mechanisms) > 0 {
			fmt.Print("denials mediated by:")
			for _, m := range rep.Mechanisms {
				fmt.Printf(" %s", m)
			}
			fmt.Println()
		}
		return nil
	}
}

// writeJSON writes a rendered JSON report to stdout.
func writeJSON(data []byte, err error) error {
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(data)
	return err
}
