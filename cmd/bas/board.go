package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"mkbas/internal/attack"
	"mkbas/internal/bacnet"
	"mkbas/internal/bas"
	"mkbas/internal/faultinject"
	"mkbas/internal/safety"
	"mkbas/internal/tenantapi"
)

// deployBoard boots the default temperature-control scenario on the named
// platform: the one deploy path of control and mon. The caller shuts the
// testbed's machine down.
func deployBoard(platform string, opts bas.DeployOptions) (*bas.Testbed, bas.Deployment, error) {
	p, err := bas.ParsePlatform(platform)
	if err != nil {
		return nil, nil, err
	}
	cfg := bas.DefaultScenario()
	tb := bas.NewTestbed(cfg)
	dep, err := bas.Deploy(p, tb, cfg, opts)
	if err != nil {
		tb.Machine.Shutdown()
		return nil, nil, err
	}
	return tb, dep, nil
}

// controlCmd runs the Fig. 2 temperature-control scenario and prints the
// behaviour trace: the closed-loop heat-up, an optional administrator
// setpoint change through the HTTP interface, and an optional heater fault
// that must trip the alarm (experiment E3).
func controlCmd(fs *flag.FlagSet) func([]string) error {
	platform := get[string](fs, "platform")
	duration := get[time.Duration](fs, "duration")
	setpoint := get[float64](fs, "setpoint")
	setpointAt := get[time.Duration](fs, "setpoint-at")
	failHeaterAt := get[time.Duration](fs, "fail-heater-at")
	showTrace := get[bool](fs, "trace")
	showEvents := get[bool](fs, "events")
	showMetrics := get[bool](fs, "metrics")
	withBACnet := get[bool](fs, "bacnet")
	bacnetKey := get[string](fs, "bacnet-key")
	return func([]string) error {
		gw := bas.BACnetOptions{Enabled: *withBACnet, Key: []byte(*bacnetKey)}
		tb, dep, err := deployBoard(*platform, bas.DeployOptions{BACnet: gw})
		if err != nil {
			return err
		}
		defer tb.Machine.Shutdown()
		if sel4, ok := dep.(*bas.Sel4Deployment); ok {
			if err := sel4.System.Verify(); err != nil {
				return fmt.Errorf("CapDL verification: %w", err)
			}
			fmt.Println("CapDL capability distribution verified against the kernel")
		}
		mon := safety.Attach(tb.Machine.Clock(), tb.Room, safety.DefaultConfig())
		if *failHeaterAt > 0 {
			tb.Machine.Clock().After(*failHeaterAt, func() { tb.Room.FailHeater(true) })
		}

		fmt.Printf("=== %s: temperature-control scenario (room %.1f°C, setpoint %.1f°C) ===\n",
			*platform, tb.Room.Temperature(), bas.DefaultScenario().Controller.Setpoint)

		// Phase 1: run to the setpoint change (or straight through).
		if *setpoint != 0 && *setpointAt < *duration {
			tb.Machine.Run(*setpointAt)
			status, body, err := tb.HTTPPostSetpoint(fmt.Sprintf("%.2f", *setpoint))
			if err != nil {
				fmt.Printf("[%s] POST /setpoint failed: %v\n", tb.Machine.Clock().Now(), err)
			} else {
				fmt.Printf("[%s] POST /setpoint %.2f -> %d %s", tb.Machine.Clock().Now(), *setpoint, status, body)
			}
			mon.SetSetpoint(*setpoint)
		}
		tb.Machine.Run(*duration)

		// Final report.
		if code, body, err := tb.HTTPGet("/status"); err == nil {
			fmt.Printf("[%s] GET /status -> %d %s", tb.Machine.Clock().Now(), code, body)
		}
		if *withBACnet {
			demoBACnet(tb, *bacnetKey)
		}
		fmt.Printf("\n--- plant ---\n")
		fmt.Printf("temperature: %.2f°C  heater: %v  alarm: %v  heater-failed: %v\n",
			tb.Room.Temperature(), tb.Room.HeaterOn(), tb.Room.AlarmOn(), tb.Room.HeaterFailed())
		history := tb.Room.History()
		fmt.Printf("actuator events: %d\n", tb.Room.Transitions())
		if n := tb.Room.Transitions(); n > int64(len(history)) {
			fmt.Printf("  (the oldest %d are not kept; the newest %d follow)\n", n-int64(len(history)), len(history))
		}
		for _, ev := range history {
			fmt.Printf("  [%s] %s (%.2f°C)\n", ev.At, ev.Kind, ev.Temp)
		}

		fmt.Printf("\n--- safety ---\n")
		if mon.Healthy() {
			fmt.Println("no safety violations")
		} else {
			for _, v := range mon.Violations() {
				fmt.Println(" ", v)
			}
		}

		stats := tb.Machine.Engine().Stats()
		fmt.Printf("\n--- board ---\ntraps: %d  context switches: %d  kernel time: %v\n",
			stats.Traps, stats.ContextSwitches, stats.KernelTime)

		if *showEvents {
			fmt.Printf("\n--- security events ---\n")
			evlog := tb.Machine.Obs().Events()
			if evlog.Total() == 0 {
				fmt.Println("none")
			}
			for _, e := range evlog.Events() {
				fmt.Printf("[%s] %s\n", e.At, e)
			}
		}
		if *showMetrics {
			fmt.Printf("\n--- metrics ---\n")
			fmt.Print(tb.Machine.Obs().Metrics().PromText())
		}
		if *showTrace {
			fmt.Printf("\n--- trace (last 40 lines) ---\n")
			lines := tb.Machine.Trace().Lines()
			if len(lines) > 40 {
				lines = lines[len(lines)-40:]
			}
			for _, l := range lines {
				fmt.Println(l)
			}
		}
		return nil
	}
}

// demoBACnet reads the temperature point over the field bus, proxied or
// legacy depending on the key.
func demoBACnet(tb *bas.Testbed, key string) {
	req := bacnet.PDU{Type: bacnet.ReadProperty, Device: 1, Object: bacnet.ObjTemperature}
	if key != "" {
		client := bacnet.NewSecureClient([]byte(key), 1)
		respFrame := tb.BACnetExchange(client.AppendSeal(nil, req))
		if respFrame == nil {
			fmt.Println("BACnet (proxied): no answer")
			return
		}
		resp, err := client.Open(respFrame)
		if err != nil {
			fmt.Printf("BACnet (proxied): %v\n", err)
			return
		}
		fmt.Printf("BACnet ReadProperty(temperature) via secure proxy -> %.2f°C\n", resp.Value)
		return
	}
	resp, err := bacnet.DecodePDU(tb.BACnetExchange(req.AppendEncode(nil)))
	if err != nil {
		fmt.Printf("BACnet (legacy): %v\n", err)
		return
	}
	fmt.Printf("BACnet ReadProperty(temperature), legacy mode -> %.2f°C\n", resp.Value)
}

// monCmd replays the scenario on one board and prints the board's
// observability report: the metrics registry, IPC span statistics and the
// unified security-event stream (experiment E9). Everything derives from
// virtual time, so the same flags produce byte-identical output.
func monCmd(fs *flag.FlagSet) func([]string) error {
	platform := get[string](fs, "platform")
	duration := get[time.Duration](fs, "duration")
	jsonOut := get[bool](fs, "json")
	withEvents := get[bool](fs, "embed-events")
	chromePath := get[string](fs, "chrome")
	promOut := get[bool](fs, "prom")
	apiN := get[int](fs, "api-requests")
	action := get[string](fs, "action")
	root := get[bool](fs, "root")
	faults := get[string](fs, "faults")
	monitor := get[bool](fs, "monitor")
	demote := get[bool](fs, "demote")
	recovery := get[bool](fs, "recovery")
	prof := perfFlags(fs)
	return func([]string) error {
		if err := prof.Start(); err != nil {
			return err
		}
		if *action != "" {
			p, err := bas.ParsePlatform(*platform)
			if err != nil {
				return err
			}
			report, err := attack.Execute(attack.Spec{
				Platform: p, Action: attack.Action(*action), Root: *root, FaultPlan: *faults,
				Recovery: *recovery, Monitor: *monitor, Demote: *demote, Profiler: prof.Profiler(),
			})
			if err != nil {
				return err
			}
			if err := prof.Finish(); err != nil {
				return err
			}
			return printAttack(report, *jsonOut)
		}

		tb, dep, err := deployBoard(*platform, bas.DeployOptions{
			Recovery: *recovery, Monitor: *monitor || *demote, TenantAPI: *apiN > 0, Profiler: prof.Profiler(),
		})
		if err != nil {
			return err
		}
		defer tb.Machine.Shutdown()
		var inj *faultinject.Injector
		if *faults != "" {
			plan, err := faultinject.Lookup(*faults)
			if err != nil {
				return err
			}
			for _, f := range plan.Faults {
				if faultinject.BusKind(f.Kind) {
					return fmt.Errorf("plan %q contains bus-level fault %s; bus plans run on a building (bas building -busfaults %s)", *faults, f.Kind, *faults)
				}
			}
			if inj, err = dep.ArmFaults(plan); err != nil {
				return err
			}
		}
		var tier *bas.TenantTier
		if *apiN > 0 {
			// The temperature-control testbed is one room; size the directory
			// to match so own-room reads resolve.
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
		// The report keeps the platform as spelled on the command line.
		report := board.Report(*platform, *withEvents)
		if *jsonOut {
			// A fault campaign already shows in the JSON report through the
			// fault_injected_total counter, the fault_mttr histogram and the
			// restart/fault events in the stream.
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
			rep := inj.Report()
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
		return nil
	}
}

// printAttack reports one replayed attack and which mediation layer, if
// any, stopped it; the security-event stream is the evidence.
func printAttack(report *attack.Report, jsonOut bool) error {
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
	rng := tenantapi.SplitMix64{State: 0xE9}
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
			p := tier.Directory.At(int(rng.Next() % uint64(tier.Directory.Len())))
			room := p.Room
			if room < 0 { // managers and vendors are building-scoped
				room = 0
			}
			req = tenantapi.Request{Token: p.Token, Route: tenantapi.RouteStatus, Room: room}
			switch rng.Next() % 10 {
			case 0:
				req.Route = tenantapi.RouteSetpoint
				req.Value = 20 + float64(rng.Next()%60)/10
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
