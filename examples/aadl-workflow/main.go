// AADL workflow: the paper's Fig. 1 top-down/bottom-up loop, end to end.
//
//  1. Parse the AADL model of the temperature-control architecture: the
//     embedded scenario model every scenario board boots from, or a model
//     file given on the command line.
//
//  2. Compile it to the access control matrix and the PM syscall grants
//     (and show the C rendering the authors compiled into their MINIX
//     kernel).
//
//  3. Boot the MINIX platform with the generated policy and prove the
//     closed loop still works.
//
//  4. Compile the same model to a CAmkES topology, and verify the booted
//     seL4 system's capability distribution against its CapDL description.
//
//  5. Compile it once more to the hardened Linux DAC policy: the owner and
//     modes of the queue pair behind each connected in-port.
//
//     go run ./examples/aadl-workflow [model.aadl]
package main

import (
	"fmt"
	"os"
	"time"

	"mkbas/internal/aadl"
	"mkbas/internal/bas"
	"mkbas/internal/core"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aadl-workflow:", err)
		os.Exit(1)
	}
}

func run() error {
	src := aadl.TempControl
	if len(os.Args) > 1 {
		text, err := os.ReadFile(os.Args[1])
		if err != nil {
			return err
		}
		src = string(text)
	}

	// Step 1: model.
	pkg, err := aadl.Parse(src)
	if err != nil {
		return err
	}
	const sysName = aadl.TempControlSystem
	fmt.Printf("parsed package %s: %d processes, %d system implementation(s)\n",
		pkg.Name, len(pkg.Processes), len(pkg.Systems))

	// Step 2: model -> ACM.
	matrix, err := aadl.GenerateACM(pkg, sysName)
	if err != nil {
		return err
	}
	fmt.Println("\ngenerated access control matrix:")
	fmt.Print(matrix.String())

	cSrc, err := aadl.GenerateC(pkg, sysName)
	if err != nil {
		return err
	}
	fmt.Println("C rendering (compiled with the kernel in the paper's build):")
	fmt.Print(cSrc)

	// Step 3: boot MINIX with the generated policy.
	grants, err := aadl.GenerateSyscalls(pkg, sysName)
	if err != nil {
		return err
	}
	policy := (&core.Policy{IPC: matrix, Syscalls: grants}).Seal()

	cfg := bas.DefaultScenario()
	tb := bas.NewTestbed(cfg)
	defer tb.Machine.Shutdown()
	if _, err := bas.Deploy(bas.PlatformMinix, tb, cfg, bas.DeployOptions{Policy: policy}); err != nil {
		return err
	}
	tb.Machine.Run(30 * time.Minute)
	fmt.Printf("\nMINIX under the generated policy: room at %.2f°C after 30m (setpoint %.1f)\n",
		tb.Room.Temperature(), cfg.Controller.Setpoint)
	fmt.Printf("ACM denials during healthy operation: %d (want 0)\n",
		tb.Machine.Obs().Metrics().Counter("minix_ipc_denied_total").Value())

	// Step 4: model -> CAmkES, and CapDL verification of the seL4 build.
	topo, err := aadl.GenerateCAmkES(pkg, sysName)
	if err != nil {
		return err
	}
	fmt.Println("\ngenerated CAmkES assembly:")
	fmt.Print(topo.RenderCAmkES(sysName))

	tb2 := bas.NewTestbed(cfg)
	defer tb2.Machine.Shutdown()
	sdep, err := bas.Deploy(bas.PlatformSel4, tb2, cfg, bas.DeployOptions{})
	if err != nil {
		return err
	}
	// The deployment's Sel4 field is the booted CAmkES system.
	fmt.Println("\nCapDL description of the booted seL4 system:")
	fmt.Print(sdep.Sel4.Spec().Render())
	if err := sdep.Sel4.Verify(); err != nil {
		return fmt.Errorf("CapDL verification: %w", err)
	}
	fmt.Println("capability distribution verified against the live kernel")

	fmt.Printf("\ngenerated topology: %d components, %d connections; the seL4 board above boots the embedded model's, without its optional BACnet gateway\n",
		len(topo.Components), len(topo.Connections))

	// Step 5: model -> Linux DAC.
	dac, err := aadl.GenerateDAC(pkg, sysName)
	if err != nil {
		return err
	}
	fmt.Println("\ngenerated Linux DAC policy (each process under its Linux_Account):")
	for _, q := range dac.Queues {
		fmt.Printf("  %-18s owner %d:%d  request %04o  reply %04o  peers %v\n",
			q.Port, q.Owner.UID, q.Owner.GID, uint16(q.Mode), uint16(q.ReplyMode), q.Peers)
	}
	return nil
}
