// API attack family (experiment E16): the attacker no longer sits inside the
// web interface process — they sit outside the building with a stolen tenant
// credential. The board's kernel-level mediation is blind to this attacker by
// construction: a stolen manager token's setpoint write rides the same
// certified IPC edges as a legitimate operator's. Whatever blocks these
// attacks must therefore be the tenant tier itself — session auth,
// role-based authorisation against the certified tenant graph, rate
// limiting, and admission control — and the harness adjudicates with the
// same ground-truth safety monitors and typed denial events as the board
// attacks.
package attack

import (
	"fmt"

	"mkbas/internal/bas"
	"mkbas/internal/polcheck/monitor"
	"mkbas/internal/safety"
	"mkbas/internal/tenantapi"
)

// API attacks. Spec.Root selects the attacker model: false is a stolen
// occupant credential, true a stolen facility-manager credential (the "root"
// of the tenant tier's authority lattice).
const (
	// ActionAPITokenReplay replays the stolen credential for everything its
	// role permits: reads for recon, setpoint writes when the credential is
	// a manager's. The manager variant is the family's money row — the write
	// is certified, in-band, and physically harmful, so only credential
	// revocation plus origin demotion (Spec.Demote) can block it.
	ActionAPITokenReplay Action = "api-token-replay"
	// ActionAPIRoleEscalation drives manager- and vendor-only routes with an
	// occupant credential: setpoint writes, diagnostics, cross-room reads.
	ActionAPIRoleEscalation Action = "api-role-escalation"
	// ActionAPIVendorPivot uses a stolen vendor credential to harvest
	// diagnostics, then pivots toward room state and setpoint writes.
	ActionAPIVendorPivot Action = "api-vendor-pivot"
	// ActionAPIFlood floods the tier with junk-token and stolen-token
	// requests, with periodic spikes, while legitimate manager probes check
	// whether service survives.
	ActionAPIFlood Action = "api-flood"
)

// AllAPIActions lists the API attack family. Kept separate from
// AllActions(): the board attacks run inside the web interface process, the
// API attacks outside the building, and sweeps opt into each family
// explicitly.
func AllAPIActions() []Action {
	return []Action{
		ActionAPITokenReplay, ActionAPIRoleEscalation,
		ActionAPIVendorPivot, ActionAPIFlood,
	}
}

// IsAPIAction reports whether the action belongs to the API attack family.
func IsAPIAction(a Action) bool {
	switch a {
	case ActionAPITokenReplay, ActionAPIRoleEscalation, ActionAPIVendorPivot, ActionAPIFlood:
		return true
	}
	return false
}

// apiSeed fixes the tenant directory and latency-jitter streams for attack
// runs; reports stay byte-comparable across platforms and hosts.
const apiSeed = 0xBA5E16

// apiRounds slices the attack window: the request script runs between run
// slices on the harness thread (setpoint writes step the machine through the
// real HTTP+IPC path and must never run inside clock callbacks).
const apiRounds = 36

// executeAPIScenario runs one API attack end to end: a benign board deploys
// with the tenant-gateway policy row, the tenant tier fronts it, and the
// scripted attacker drives the tier from outside.
func executeAPIScenario(spec Spec, cfg bas.ScenarioConfig) (*Report, error) {
	if spec.FaultPlan != "" && spec.FaultPlan != "none" {
		return nil, fmt.Errorf("attack: API attacks take no fault plan (got %q)", spec.FaultPlan)
	}
	if spec.ForkQuota > 0 {
		return nil, fmt.Errorf("attack: API attacks take no fork quota")
	}
	tb := bas.NewTestbed(cfg)
	defer tb.Machine.Shutdown()

	prog := &progress{}
	dep, err := bas.Deploy(spec.Platform, tb, cfg, bas.DeployOptions{
		TenantAPI: true,
		Recovery:  spec.Recovery,
		Monitor:   spec.Monitor || spec.Demote,
		Profiler:  spec.Profiler,
	})
	if err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}
	gw := bas.AttachTenantAPI([]*bas.Testbed{tb},
		tenantapi.DirectoryConfig{Seed: apiSeed, Occupants: 8, Managers: 2, Vendors: 2},
		tenantapi.GatewayConfig{Seed: apiSeed},
	).Gateway

	mon := safety.Attach(tb.Machine.Clock(), tb.Room, safetyConfig(cfg, settleTime))

	dep.Run(settleTime)

	stolen := stolenPrincipal(gw, spec)
	prog.note("stolen credential: %s (%s)", stolen.Name, stolen.Role)
	if spec.Demote {
		// Incident response at the attack window's open: the credential is
		// revoked and its role's origin demoted below the certified tenant
		// graph, so even the role's certified edges stop verifying.
		if gw.Directory().Revoke(stolen.Name) {
			prog.note("incident response: credential %s revoked", stolen.Name)
		}
		if gw.Monitor().Demote(stolen.Role.Subject(), monitor.OriginUntrusted) {
			prog.note("incident response: origin demotion %s -> untrusted", stolen.Role.Subject())
		}
	}

	script := apiScript(spec, gw, stolen, prog)
	for round := 0; round < apiRounds; round++ {
		script(round)
		dep.Run(attackTime / apiRounds)
	}
	tierStats := gw.Monitor().Stats()
	prog.note("tier: %d served, %d unauthorized, %d forbidden, %d rate-limited, %d overload; monitor: %d origin drift",
		gw.Served(), gw.Denied(tenantapi.OutcomeUnauthorized),
		gw.Denied(tenantapi.OutcomeForbidden), gw.Denied(tenantapi.OutcomeRateLimited),
		gw.Denied(tenantapi.OutcomeOverload), tierStats.OriginDrifts)

	return boardReport(spec, prog, mon.Violations(), tb, dep), nil
}

// stolenPrincipal picks the credential the attacker holds.
func stolenPrincipal(gw *tenantapi.Gateway, spec Spec) *tenantapi.Principal {
	switch {
	case spec.Action == ActionAPIVendorPivot:
		return gw.Directory().Find("vendor-0000")
	case spec.Root && spec.Action == ActionAPITokenReplay:
		return gw.Directory().Find("manager-0000")
	default:
		return gw.Directory().Find("occupant-0000")
	}
}

// apiScript builds the per-round request script for the action. Every
// request is counted: served ones as attacker successes only when the
// operation itself is the attack's objective (recon reads, harmful writes,
// diagnostics exfil), denied ones as denials.
func apiScript(spec Spec, gw *tenantapi.Gateway, stolen *tenantapi.Principal, prog *progress) func(round int) {
	var resp tenantapi.Response
	// attempt drives one stolen-credential request and books the tally: a
	// served request is an attacker success, a refused one a denial.
	attempt := func(req tenantapi.Request) tenantapi.Outcome {
		prog.attempts++
		out := gw.Handle(&req, &resp)
		if out == tenantapi.OutcomeOK {
			prog.successes++
		} else {
			prog.denials++
		}
		return out
	}
	token := stolen.Token
	switch spec.Action {
	case ActionAPITokenReplay:
		first := true
		return func(round int) {
			attempt(tenantapi.Request{Token: token, Route: tenantapi.RouteWhoAmI})
			attempt(tenantapi.Request{Token: token, Route: tenantapi.RouteStatus, Room: 0})
			if stolen.Role == tenantapi.RoleManager {
				// The harmful write: in-band for the gateway's validator,
				// certified for the manager role, 9 degrees above the
				// building's configured comfort point.
				out := attempt(tenantapi.Request{Token: token, Route: tenantapi.RouteSetpoint, Room: 0, Value: tenantapi.MaxSetpoint})
				if first && out == tenantapi.OutcomeOK {
					prog.note("round %d: stolen manager token wrote setpoint %.1f through the certified path", round, tenantapi.MaxSetpoint)
					first = false
				}
			} else {
				attempt(tenantapi.Request{Token: token, Route: tenantapi.RouteSetpoint, Room: 0, Value: 27})
			}
		}
	case ActionAPIRoleEscalation:
		return func(round int) {
			// Only operations outside the occupant's certified edges: a
			// served one would be a real escalation.
			attempt(tenantapi.Request{Token: token, Route: tenantapi.RouteSetpoint, Room: 0, Value: 27})
			attempt(tenantapi.Request{Token: token, Route: tenantapi.RouteDiagnostics})
			attempt(tenantapi.Request{Token: token, Route: tenantapi.RouteStatus, Room: stolen.Room + 1})
		}
	case ActionAPIVendorPivot:
		return func(round int) {
			// Diagnostics are the vendor's certified edge — served, and
			// counted as the exfil objective. The pivot attempts are not.
			attempt(tenantapi.Request{Token: token, Route: tenantapi.RouteDiagnostics})
			attempt(tenantapi.Request{Token: token, Route: tenantapi.RouteStatus, Room: 0})
			attempt(tenantapi.Request{Token: token, Route: tenantapi.RouteSetpoint, Room: 0, Value: tenantapi.MinSetpoint})
		}
	case ActionAPIFlood:
		legit := gw.Directory().Find("manager-0001")
		var legitShed bool
		return func(round int) {
			// Legitimate steady traffic first (it was in flight before the
			// burst): a shed probe means the flood achieved denial of
			// service, which is the flood's objective.
			for i := 0; i < 2; i++ {
				prog.attempts++
				out := gw.Handle(&tenantapi.Request{Token: legit.Token, Route: tenantapi.RouteStatus, Room: 0}, &resp)
				if out != tenantapi.OutcomeOK {
					prog.successes++
					if !legitShed {
						prog.note("round %d: legitimate manager probe shed (%v) — flood achieved DoS", round, out)
						legitShed = true
					}
				}
			}
			// Sustained anonymous flood: junk tokens die at session auth.
			for i := 0; i < 60; i++ {
				attempt(tenantapi.Request{Token: "tok-deadbeefdeadbeef", Route: tenantapi.RouteStatus, Room: 0})
			}
			// Authenticated flood beyond the stolen credential's certified
			// room and rate: rbac sheds the head, the token bucket the tail.
			for i := 0; i < 50; i++ {
				attempt(tenantapi.Request{Token: token, Route: tenantapi.RouteStatus, Room: stolen.Room + 1})
			}
			// Periodic spike past the admission budget: backpressure sheds
			// the overflow before identity is even established.
			if round%6 == 0 {
				for i := 0; i < 300; i++ {
					attempt(tenantapi.Request{Token: "tok-0000000000000000", Route: tenantapi.RouteWhoAmI})
				}
			}
		}
	}
	return func(int) {}
}
