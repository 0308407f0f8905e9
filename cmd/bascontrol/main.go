// Command bascontrol runs the Fig. 2 temperature-control scenario on a
// chosen platform and prints the behaviour trace: the closed-loop heat-up,
// an optional administrator setpoint change through the (simulated) HTTP
// interface, and an optional heater-fault injection that must trip the
// alarm. This regenerates experiment E3.
//
// Usage:
//
//	bascontrol -platform minix -duration 40m
//	bascontrol -platform sel4 -setpoint 25 -setpoint-at 10m
//	bascontrol -platform linux -fail-heater-at 20m -duration 90m
//	bascontrol -platform sel4 -bacnet -bacnet-key s3cret
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mkbas/internal/bacnet"
	"mkbas/internal/bas"
	"mkbas/internal/cli"
	"mkbas/internal/safety"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bascontrol:", err)
		os.Exit(1)
	}
}

func run() error {
	platform := flag.String("platform", "minix", "platform: minix, minix-vanilla, sel4, linux, linux-hardened")
	duration := flag.Duration("duration", 40*time.Minute, "virtual run time")
	setpoint := flag.Float64("setpoint", 0, "new setpoint to POST mid-run (0 = none)")
	setpointAt := flag.Duration("setpoint-at", 10*time.Minute, "when to POST the new setpoint")
	failHeaterAt := flag.Duration("fail-heater-at", 0, "inject a heater fault at this instant (0 = never)")
	showTrace := flag.Bool("trace", true, "print the board trace")
	showEvents := flag.Bool("events", false, "dump the unified security-event stream")
	showMetrics := flag.Bool("metrics", false, "print board metrics in Prometheus text exposition")
	withBACnet := flag.Bool("bacnet", false, "also run the BACnet gateway and demo a field-bus read")
	bacnetKey := flag.String("bacnet-key", "", "enable the secure proxy with this shared key")
	flag.Parse()

	cfg := bas.DefaultScenario()
	tb := bas.NewTestbed(cfg)
	defer tb.Machine.Shutdown()

	gw := bas.BACnetOptions{Enabled: *withBACnet, Key: []byte(*bacnetKey)}
	if err := deploy(tb, cfg, *platform, gw); err != nil {
		return err
	}
	mon := safety.Attach(tb.Machine.Clock(), tb.Room, safety.DefaultConfig())

	if *failHeaterAt > 0 {
		at := *failHeaterAt
		tb.Machine.Clock().After(at, func() { tb.Room.FailHeater(true) })
	}

	fmt.Printf("=== %s: temperature-control scenario (room %.1f°C, setpoint %.1f°C) ===\n",
		*platform, tb.Room.Temperature(), cfg.Controller.Setpoint)

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
	fmt.Printf("actuator events: %d\n", len(tb.Room.History()))
	for _, ev := range tb.Room.History() {
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

// demoBACnet reads the temperature point over the field bus, proxied or
// legacy depending on the key.
func demoBACnet(tb *bas.Testbed, key string) {
	req := bacnet.PDU{Type: bacnet.ReadProperty, Device: 1, Object: bacnet.ObjTemperature}
	var raw []byte
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
	raw = tb.BACnetExchange(req.AppendEncode(nil))
	resp, err := bacnet.DecodePDU(raw)
	if err != nil {
		fmt.Printf("BACnet (legacy): %v\n", err)
		return
	}
	fmt.Printf("BACnet ReadProperty(temperature), legacy mode -> %.2f°C\n", resp.Value)
}

func deploy(tb *bas.Testbed, cfg bas.ScenarioConfig, platform string, gw bas.BACnetOptions) error {
	p, err := cli.ParsePlatform(platform)
	if err != nil {
		return err
	}
	dep, err := bas.Deploy(p, tb, cfg, bas.DeployOptions{BACnet: gw})
	if err != nil {
		return err
	}
	if p == bas.PlatformSel4 {
		if err := dep.(*bas.Sel4Deployment).System.Verify(); err != nil {
			return fmt.Errorf("CapDL verification: %w", err)
		}
		fmt.Println("CapDL capability distribution verified against the kernel")
	}
	return nil
}
