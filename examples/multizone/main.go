// Multizone: a small building. A BAS is a *distributed* CPS — one controller
// per zone, each an independent embedded board running the microkernel
// platform, supervised over the IT network. This example runs three zones
// with different thermal characteristics and setpoints, injects a heater
// fault into one, and prints the building dashboard an operator would see.
//
//	go run ./examples/multizone
package main

import (
	"fmt"
	"os"
	"time"

	"mkbas/internal/bas"
	"mkbas/internal/safety"
)

// zone is one room + controller board.
type zone struct {
	name     string
	setpoint string
	tb       *bas.Testbed
	mon      *safety.Monitor
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "multizone:", err)
		os.Exit(1)
	}
}

func run() error {
	specs := []struct {
		name     string
		initial  float64
		ambient  float64
		setpoint string
	}{
		{"lab-wing", 18, 15, "22"},
		{"office", 21, 17, "24"},
		{"bsl3-suite", 19, 14, "21"},
	}

	var zones []*zone
	for i, spec := range specs {
		cfg := bas.DefaultScenario()
		cfg.Seed = int64(i + 1)
		cfg.Plant.InitialTemp = spec.initial
		cfg.Plant.Ambient = spec.ambient
		tb := bas.NewTestbed(cfg)
		defer tb.Machine.Shutdown()
		if _, err := bas.Deploy(bas.PlatformMinix, tb, cfg, bas.DeployOptions{}); err != nil {
			return fmt.Errorf("zone %s: %w", spec.name, err)
		}
		monCfg := safety.DefaultConfig()
		mon := safety.Attach(tb.Machine.Clock(), tb.Room, monCfg)
		zones = append(zones, &zone{name: spec.name, setpoint: spec.setpoint, tb: tb, mon: mon})
	}

	// Let every zone boot, then push its setpoint through its web
	// interface, like a building management system would.
	for _, z := range zones {
		z.tb.Machine.Run(5 * time.Second)
		if _, _, err := z.tb.HTTPPostSetpoint(z.setpoint); err != nil {
			return fmt.Errorf("zone %s setpoint: %w", z.name, err)
		}
		z.mon.SetSetpoint(parseFloat(z.setpoint))
	}

	// Fault injection: the BSL-3 suite's heater fails one hour in. Its
	// controller must raise the alarm; the other zones stay healthy.
	zones[2].tb.Machine.Clock().After(time.Hour, func() {
		zones[2].tb.Room.FailHeater(true)
	})

	// Advance the whole building in lockstep, printing the dashboard.
	fmt.Printf("%-12s %-10s %-10s %-8s %-8s %s\n", "zone", "temp", "setpoint", "heater", "alarm", "violations")
	for step := 1; step <= 4; step++ {
		for _, z := range zones {
			z.tb.Machine.Run(45 * time.Minute)
		}
		fmt.Printf("--- t = %s ---\n", zones[0].tb.Machine.Clock().Now())
		for _, z := range zones {
			_, body, err := z.tb.HTTPGet("/status")
			if err != nil {
				body = []byte("unreachable: " + err.Error())
			}
			fmt.Printf("%-12s room=%.2f°C  %s", z.name, z.tb.Room.Temperature(), body)
			if n := len(z.mon.Violations()); n > 0 {
				fmt.Printf("%-12s   ^ %d safety violations recorded\n", "", n)
			}
		}
	}

	fmt.Println()
	for _, z := range zones {
		fmt.Printf("%s: alarm=%v heater-failed=%v violations=%d\n",
			z.name, z.tb.Room.AlarmOn(), z.tb.Room.HeaterFailed(), len(z.mon.Violations()))
	}
	if !zones[2].tb.Room.AlarmOn() {
		return fmt.Errorf("bsl3-suite alarm should be on after the heater fault")
	}
	fmt.Println("\nthe faulted zone alarmed; the healthy zones held their setpoints")
	return nil
}

func parseFloat(s string) float64 {
	var v float64
	fmt.Sscanf(s, "%g", &v)
	return v
}
