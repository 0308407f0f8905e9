// Command basmon replays the Fig. 2 temperature-control scenario on one
// platform and prints the board's observability report: the metrics
// registry, IPC span statistics, and the unified security-event stream
// (experiment E9). Everything is derived from virtual time, so the same
// flags produce byte-identical output on every run.
//
// Usage:
//
//	basmon -platform minix                      text report
//	basmon -platform sel4 -json                 deterministic JSON report
//	basmon -platform linux -chrome trace.json   Chrome trace-event export
//	basmon -platform minix -prom                Prometheus text exposition
//	basmon -platform sel4 -attack kill-controller -root
//	basmon -platform minix -faults crash-sensor -duration 1h   E10 chaos run
//	basmon -platform sel4 -perf -memprofile heap.pprof         host-side profile
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"mkbas/internal/attack"
	"mkbas/internal/bas"
	"mkbas/internal/cli"
	"mkbas/internal/faultinject"
	"mkbas/internal/perf"
	"mkbas/internal/tenantapi"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "basmon:", err)
		os.Exit(1)
	}
}

func run() error {
	platform := flag.String("platform", "minix", "platform: minix, minix-vanilla, sel4, linux, linux-hardened")
	duration := flag.Duration("duration", 40*time.Minute, "virtual run time")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	withEvents := flag.Bool("events", true, "embed the retained security events in the report")
	chromePath := flag.String("chrome", "", `write the IPC spans as Chrome trace-event JSON to this file ("-" = stdout)`)
	promOut := flag.Bool("prom", false, "print metrics in Prometheus text exposition instead of a report")
	apiN := flag.Int("api", 0, "attach the tenant API tier and drive this many deterministic occupant/manager/vendor requests across the run (adds api_* counters and latency histograms to the report)")
	action := flag.String("attack", "", "replay an E1 attack instead of the plain scenario (spoof-sensor, command-actuators, kill-controller, enumerate-handles, fork-bomb)")
	root := flag.Bool("root", false, "attack with the root attacker model")
	faults := flag.String("faults", "", "arm a builtin fault-injection plan (E10 chaos), e.g. crash-sensor")
	var guard cli.Guard
	guard.Register(flag.CommandLine)
	var prof perf.CLI
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if err := prof.Start(); err != nil {
		return err
	}
	if *action != "" {
		return runAttack(*platform, attack.Action(*action), *root, *jsonOut, *faults, guard, &prof)
	}

	cfg := bas.DefaultScenario()
	tb := bas.NewTestbed(cfg)
	defer tb.Machine.Shutdown()
	dep, err := deploy(tb, cfg, *platform, guard, *apiN > 0, prof.Profiler())
	if err != nil {
		return err
	}
	var inj *faultinject.Injector
	if *faults != "" {
		plan, perr := faultinject.Lookup(*faults)
		if perr != nil {
			return perr
		}
		for _, f := range plan.Faults {
			if faultinject.BusKind(f.Kind) {
				return fmt.Errorf("plan %q contains bus-level fault %s; bus plans run on a building (basbuilding -busfaults %s)", *faults, f.Kind, *faults)
			}
		}
		inj, err = dep.ArmFaults(plan)
		if err != nil {
			return err
		}
	}
	var tier *bas.TenantTier
	if *apiN > 0 {
		// The temperature-control testbed is one room; size the directory to
		// match so own-room reads resolve.
		tier = bas.AttachTenantAPI(tb,
			tenantapi.DirectoryConfig{Rooms: 1, Occupants: 8, Managers: 2, Vendors: 2},
			tenantapi.GatewayConfig{})
		driveAPI(tb, tier, *apiN, *duration)
	} else {
		tb.Machine.Run(*duration)
	}
	if err := prof.Finish(); err != nil {
		return err
	}

	board := tb.Machine.Obs()
	if *chromePath != "" {
		out, err := board.Tracer().ChromeTrace()
		if err != nil {
			return err
		}
		if *chromePath == "-" {
			_, err = os.Stdout.Write(out)
			return err
		}
		if err := os.WriteFile(*chromePath, out, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d bytes of trace events to %s\n", len(out), *chromePath)
	}
	if *promOut {
		fmt.Print(board.Metrics().PromText())
		return nil
	}

	report := board.Report(*platform, *withEvents)
	if *jsonOut {
		// The fault campaign already shows in the JSON report through the
		// fault_injected_total counter, the fault_mttr histogram, and the
		// restart/fault events in the stream; no extra shape is needed.
		out, err := report.JSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(out)
		return err
	}
	fmt.Print(report.Text())
	if tier != nil {
		fmt.Println(tier)
	}
	if pm := dep.PolicyMonitor(); pm != nil {
		stats := pm.Stats()
		fmt.Printf("policy monitor: %d deliveries observed, %d policy drifts, %d origin drifts, %d demotions\n",
			stats.Observed, stats.PolicyDrifts, stats.OriginDrifts, stats.Demotions)
	}
	if inj != nil {
		printFaultReport(inj.Report(), dep)
	}
	return nil
}

// printFaultReport renders the chaos campaign outcome: per-fault MTTR plus
// the deployment's recovery tally.
func printFaultReport(rep *faultinject.Report, dep bas.Deployment) {
	fmt.Printf("fault campaign %q: %d injected, %d recovered, %d unrecovered\n",
		rep.Plan, rep.Injected, rep.Recovered, rep.Unrecovered)
	for _, f := range rep.Faults {
		line := fmt.Sprintf("  %s %s at %s", f.Kind, f.Target, time.Duration(f.AtNs))
		if f.MTTRNs >= 0 {
			line += fmt.Sprintf(": recovered, MTTR %s", time.Duration(f.MTTRNs))
		} else if f.Injected {
			line += ": NOT recovered"
		} else {
			line += ": not injected"
		}
		fmt.Println(line)
	}
	fmt.Printf("restarts: %d, controller alive: %v, recovered: %v\n",
		dep.ControllerRestarts(), dep.ControllerAlive(), dep.ControllerRecovered())
}

// runAttack replays one E1 attack and reports which mediation layer, if
// any, stopped it — the security-event stream is the evidence.
func runAttack(platform string, action attack.Action, root, jsonOut bool, faults string, guard cli.Guard, prof *perf.CLI) error {
	p, err := cli.ParsePlatform(platform)
	if err != nil {
		return err
	}
	spec := attack.Spec{Platform: p, Action: action, Root: root, FaultPlan: faults, Recovery: guard.Recovery, Monitor: guard.Monitor, Demote: guard.Demote, Profiler: prof.Profiler()}
	report, err := attack.Execute(spec)
	if err != nil {
		return err
	}
	if err := prof.Finish(); err != nil {
		return err
	}
	if jsonOut {
		out, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	fmt.Print(attack.Summarize(report))
	if ms := report.MonitorStats; ms != nil {
		fmt.Printf("policy monitor: %d deliveries observed, %d policy drifts, %d origin drifts, %d demotions\n",
			ms.Observed, ms.PolicyDrifts, ms.OriginDrifts, ms.Demotions)
	}
	if report.SecurityEvents.Len() == 0 {
		fmt.Println("security events: none recorded")
		return nil
	}
	fmt.Printf("security events (%d):\n", report.SecurityEvents.Len())
	for e := range report.SecurityEvents.All() {
		fmt.Printf("  [%s] %s\n", e.At, e)
	}
	return nil
}

// driveAPI interleaves deterministic tenant requests with the scenario run:
// the duration splits into slices, and each slice's batch executes on the
// harness thread at the virtual instant where the slice ended. The mix is a
// fixed splitmix64 stream, so the same flags still produce identical bytes.
func driveAPI(tb *bas.Testbed, tier *bas.TenantTier, n int, duration time.Duration) {
	const slices = 16
	state := uint64(0xE9)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var req tenantapi.Request
	var resp tenantapi.Response
	done := 0
	for s := 0; s < slices; s++ {
		tb.Machine.Run(duration / slices)
		batch := n / slices
		if s == slices-1 {
			batch = n - done
		}
		for k := 0; k < batch; k++ {
			p := tier.Directory.At(int(next() % uint64(tier.Directory.Len())))
			room := p.Room
			if room < 0 { // managers and vendors are building-scoped
				room = 0
			}
			req = tenantapi.Request{Token: p.Token, Route: tenantapi.RouteStatus, Room: room}
			switch next() % 10 {
			case 0:
				req.Route = tenantapi.RouteSetpoint
				req.Value = 20 + float64(next()%60)/10
			case 1:
				req.Route = tenantapi.RouteDiagnostics
			case 2:
				req.Route = tenantapi.RouteWhoAmI
			case 3:
				req.Token = "tok-ffffffffffffffff"
			}
			tier.Serve(&req, &resp)
		}
		done += batch
	}
}

func deploy(tb *bas.Testbed, cfg bas.ScenarioConfig, platform string, guard cli.Guard, api bool, prof *perf.Profiler) (bas.Deployment, error) {
	p, err := cli.ParsePlatform(platform)
	if err != nil {
		return nil, err
	}
	return bas.Deploy(p, tb, cfg, bas.DeployOptions{Recovery: guard.Recovery, Monitor: guard.MonitorOn(), TenantAPI: api, Profiler: prof})
}
