// Quickstart: boot the security-enhanced MINIX 3 platform on a simulated
// controller board, let the temperature control scenario run for half an
// hour of virtual time, and interact with it the way an administrator would
// — over the web interface.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"mkbas/internal/bas"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A testbed is the physical side: one board, one thermal "room" with a
	// temperature sensor, a heater, and an alarm LED, plus a virtual
	// network. Everything is deterministic — run it twice, get identical
	// traces.
	cfg := bas.DefaultScenario()
	tb := bas.NewTestbed(cfg)
	defer tb.Machine.Shutdown()

	// Deploy the paper's five-process scenario on MINIX 3 with the access
	// control matrix compiled in. The scenario loader forks each process
	// with its ac_id; the kernel enforces the IPC policy from then on.
	dep, err := bas.Deploy(bas.PlatformMinix, tb, cfg, bas.DeployOptions{})
	if err != nil {
		return err
	}

	fmt.Printf("room starts at %.1f°C, setpoint is %.1f°C\n",
		tb.Room.Temperature(), cfg.Controller.Setpoint)

	// Run 30 minutes of virtual time: the controller heats the room up.
	tb.Machine.Run(30 * time.Minute)
	fmt.Printf("after 30 minutes the room is at %.2f°C\n", tb.Room.Temperature())

	// Ask the controller for its status over HTTP, like the paper's
	// administrator web interface.
	status, body, err := tb.HTTPGet("/status")
	if err != nil {
		return err
	}
	fmt.Printf("GET /status -> %d: %s", status, body)

	// Move the setpoint to 25 °C and give the controller an hour.
	if _, _, err := tb.HTTPPostSetpoint("25"); err != nil {
		return err
	}
	tb.Machine.Run(time.Hour)
	fmt.Printf("after the setpoint change the room is at %.2f°C\n", tb.Room.Temperature())

	// Peek at the kernel's audit state: in a healthy run the ACM denied
	// nothing, and the process manager granted exactly the loader's forks.
	// The kernel counts on the board's metrics registry. A deployment is
	// one handle on every platform; its Minix field is the booted MINIX
	// kernel (Sel4 and Linux stay nil).
	reg := tb.Machine.Obs().Metrics()
	fmt.Printf("kernel: %d IPC delivered, %d denied by the ACM\n",
		reg.Counter("minix_ipc_delivered_total").Value(), reg.Counter("minix_ipc_denied_total").Value())
	fmt.Printf("PM: %d forks granted, %d denied\n",
		dep.Minix.PM().ForksGranted(), dep.Minix.PM().ForksDenied())
	return nil
}
