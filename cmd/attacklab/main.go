// Command attacklab regenerates the paper's Section IV-D attack comparison
// (experiment E1): it runs the attack library against the platform
// deployments and prints the outcome matrix plus per-run summaries.
//
// Usage:
//
//	attacklab                         # headline matrix, both attacker models
//	attacklab -platforms all          # include the ablation platforms
//	attacklab -actions kill-controller -root
//	attacklab -action fork-bomb -platforms minix3-acm -quota 5   # E8
//	attacklab -actions api [-demote]  # E16 tenant-tier attack matrix
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mkbas/internal/attack"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "attacklab:", err)
		os.Exit(1)
	}
}

func run() error {
	platformsFlag := flag.String("platforms", "paper", `platforms: "paper" (linux, minix3-acm, sel4), "all" (adds linux-hardened, minix3-vanilla), or a comma list`)
	actionsFlag := flag.String("actions", "all", `actions: "all" (board attacks), "api" (tenant-tier attacks: api-token-replay, api-role-escalation, api-vendor-pivot, api-flood), or a comma list of either family`)
	rootFlag := flag.String("model", "both", `attacker model: "user", "root", or "both"`)
	quota := flag.Int("quota", 0, "fork quota for MINIX (0 = no quota; E8 uses 5)")
	demote := flag.Bool("demote", false, "enable incident response on API attacks: revoke the stolen credential and demote its origin at the attack window's open (E16's third column)")
	verbose := flag.Bool("v", false, "print per-run summaries")
	flag.Parse()

	platforms, err := parsePlatforms(*platformsFlag)
	if err != nil {
		return err
	}
	actions, err := parseActions(*actionsFlag)
	if err != nil {
		return err
	}

	var models []bool
	switch *rootFlag {
	case "user":
		models = []bool{false}
	case "root":
		models = []bool{true}
	case "both":
		models = []bool{false, true}
	default:
		return fmt.Errorf("unknown model %q", *rootFlag)
	}

	for _, root := range models {
		allAPI := true
		for _, a := range actions {
			if !attack.IsAPIAction(a) {
				allAPI = false
			}
		}
		label := "attacker model 1: arbitrary code execution in the web interface"
		if root {
			label = "attacker model 2: arbitrary code execution + root privilege"
		}
		if allAPI {
			label = "attacker model 1: stolen occupant/vendor credential, outside the building"
			if root {
				label = "attacker model 2: stolen facility-manager credential, outside the building"
			}
		}
		fmt.Printf("=== %s ===\n", label)
		var reports []*attack.Report
		for _, p := range platforms {
			for _, a := range actions {
				spec := attack.Spec{Platform: p, Action: a, Root: root}
				if attack.IsAPIAction(a) {
					spec.Demote = *demote
				} else if p == attack.PlatformMinix || p == attack.PlatformMinixVanilla {
					spec.ForkQuota = *quota
				}
				report, execErr := attack.Execute(spec)
				if execErr != nil {
					return execErr
				}
				reports = append(reports, report)
				if *verbose {
					fmt.Println(attack.Summarize(report))
				}
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

func parsePlatforms(s string) ([]attack.Platform, error) {
	switch s {
	case "paper":
		return attack.AllPlatforms(), nil
	case "all":
		return []attack.Platform{
			attack.PlatformLinux, attack.PlatformLinuxHardened,
			attack.PlatformMinixVanilla, attack.PlatformMinix, attack.PlatformSel4,
		}, nil
	}
	var out []attack.Platform
	for _, part := range strings.Split(s, ",") {
		p := attack.Platform(strings.TrimSpace(part))
		switch p {
		case attack.PlatformLinux, attack.PlatformLinuxHardened, attack.PlatformMinix,
			attack.PlatformMinixVanilla, attack.PlatformSel4:
			out = append(out, p)
		default:
			return nil, fmt.Errorf("unknown platform %q", part)
		}
	}
	return out, nil
}

func parseActions(s string) ([]attack.Action, error) {
	switch s {
	case "all":
		return attack.AllActions(), nil
	case "api":
		return attack.AllAPIActions(), nil
	}
	var out []attack.Action
	known := make(map[attack.Action]bool)
	for _, a := range attack.AllActions() {
		known[a] = true
	}
	for _, a := range attack.AllAPIActions() {
		known[a] = true
	}
	for _, part := range strings.Split(s, ",") {
		a := attack.Action(strings.TrimSpace(part))
		if !known[a] {
			return nil, fmt.Errorf("unknown action %q", part)
		}
		out = append(out, a)
	}
	return out, nil
}
