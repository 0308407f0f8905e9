// Attack demo: the paper's core comparison in one run. The same compromised
// web interface tries to spoof the temperature sensor and to kill the
// control process on Linux and on the security-enhanced MINIX 3; the plant's
// ground truth decides who was actually protected.
//
//	go run ./examples/attack-demo
package main

import (
	"fmt"
	"os"

	"mkbas/internal/attack"
	"mkbas/internal/bas"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "attack-demo:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("Compromised web interface, attacker model 2 (arbitrary code + root).")
	fmt.Println()

	demos := []attack.Spec{
		{Platform: bas.PlatformLinux, Action: attack.ActionSpoofSensor, Root: true},
		{Platform: bas.PlatformMinix, Action: attack.ActionSpoofSensor, Root: true},
		{Platform: bas.PlatformLinux, Action: attack.ActionKillController, Root: true},
		{Platform: bas.PlatformMinix, Action: attack.ActionKillController, Root: true},
		{Platform: bas.PlatformSel4, Action: attack.ActionEnumerate},
	}
	var reports []*attack.Report
	for _, spec := range demos {
		report, err := attack.Execute(spec)
		if err != nil {
			return err
		}
		reports = append(reports, report)
		fmt.Println(attack.Summarize(report))
	}

	fmt.Println("outcome matrix:")
	fmt.Println(attack.FormatMatrix(reports))

	fmt.Println("Reading: on Linux the root-compromised web interface impersonates the")
	fmt.Println("sensor and kills the controller, physically jeopardizing the room. On")
	fmt.Println("MINIX 3 the kernel's access control matrix and the PM's syscall audit")
	fmt.Println("deny every attempt, root or not. On seL4 the brute-force enumeration")
	fmt.Println("finds nothing beyond the two capabilities the web interface was granted.")
	return nil
}
