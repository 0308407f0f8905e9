package polcheck_test

// Acceptance tests for the cross-platform analyzer over the shipped
// tempcontrol scenario: the paper's outcome table, proven statically. These
// live in an external test package so they can import internal/bas (which
// itself imports polcheck for the deploy gate) without a cycle.

import (
	"strings"
	"testing"
	"time"

	"mkbas/internal/bas"
	"mkbas/internal/core"
	"mkbas/internal/polcheck"
)

func scenarioGraphs(t *testing.T) (minix, sel4 *polcheck.Graph) {
	t.Helper()
	spec, err := bas.Sel4Spec()
	if err != nil {
		t.Fatalf("Sel4Spec: %v", err)
	}
	return polcheck.FromPolicy(bas.MinixPolicy(false, false, core.QuotaUnlimited)), polcheck.FromCapDL(spec)
}

// TestMicrokernelPoliciesSatisfyScenarioContract is the tentpole acceptance
// criterion: both microkernel policy formalisms prove the attack-denying
// properties with no kernel booted.
func TestMicrokernelPoliciesSatisfyScenarioContract(t *testing.T) {
	minixG, sel4G := scenarioGraphs(t)
	for _, g := range []*polcheck.Graph{minixG, sel4G} {
		report := polcheck.CheckProperties(g, bas.ScenarioProperties())
		if !report.Pass() {
			t.Errorf("%s: scenario contract failed:\n%s", g.Platform, report.Text())
		}
	}
}

// TestLinuxRootDACViolatesScenarioContract: the root-escalated Linux model
// fails exactly the properties the paper's attacks exploit.
func TestLinuxRootDACViolatesScenarioContract(t *testing.T) {
	g := polcheck.FromDAC(bas.LinuxScenarioDAC(false, true))
	deny := polcheck.DenyPath{From: bas.NameWebInterface, To: bas.NameHeaterAct}.Check(g)
	if deny.Severity != polcheck.SeverityViolation {
		t.Errorf("deny_path: %s (%s)", deny.Severity, deny.Detail)
	}
	if len(deny.Path) == 0 {
		t.Error("violation must carry a witness path")
	}
	kill := polcheck.NoKillAuthority{
		Subject: bas.NameWebInterface, Target: bas.NameTempControl,
	}.Check(g)
	if kill.Severity != polcheck.SeverityViolation {
		t.Errorf("no_kill_authority: %s (%s)", kill.Severity, kill.Detail)
	}
	if !strings.Contains(kill.Detail, "uid 0") {
		t.Errorf("kill violation should blame root: %s", kill.Detail)
	}
}

// TestLinuxDefaultAndHardenedVerdicts: same-account Linux fails; hardened
// unique-account Linux passes statically (until root, tested above) — the
// paper's "unless each process runs under a unique user account" remark.
func TestLinuxDefaultAndHardenedVerdicts(t *testing.T) {
	props := bas.ScenarioProperties()
	def := polcheck.CheckProperties(polcheck.FromDAC(bas.LinuxScenarioDAC(false, false)), props)
	if def.Pass() {
		t.Error("same-account Linux deployment must violate the contract")
	}
	hard := polcheck.CheckProperties(polcheck.FromDAC(bas.LinuxScenarioDAC(true, false)), props)
	if !hard.Pass() {
		t.Errorf("hardened Linux deployment should pass statically:\n%s", hard.Text())
	}
	hardRoot := polcheck.CheckProperties(polcheck.FromDAC(bas.LinuxScenarioDAC(true, true)), props)
	if hardRoot.Pass() {
		t.Error("root bypasses DAC even in the hardened deployment")
	}
}

// TestMediatedFlowIsNotAViolation: on every platform information CAN flow
// web → controller → heater (that is the system working); DenyPath must
// distinguish that mediated route from direct attacker authority.
func TestMediatedFlowIsNotAViolation(t *testing.T) {
	minixG, sel4G := scenarioGraphs(t)
	for _, g := range []*polcheck.Graph{minixG, sel4G} {
		if _, ok := g.Reachable(bas.NameWebInterface, bas.NameHeaterAct, polcheck.ReachTransitive); !ok {
			t.Errorf("%s: web must transitively reach the heater via the controller", g.Platform)
		}
		if _, ok := g.Reachable(bas.NameWebInterface, bas.NameHeaterAct, polcheck.ReachDirect); ok {
			t.Errorf("%s: web must NOT directly reach the heater", g.Platform)
		}
	}
}

// TestDeployMinixGateRejectsOverbroadPolicy: the pre-deploy gate refuses a
// matrix that hands the web interface direct actuator authority.
func TestDeployMinixGateRejectsOverbroadPolicy(t *testing.T) {
	bad := bas.MinixPolicy(false, false, core.QuotaUnlimited)
	ipc := bad.IPC.Clone()
	ipc.Allow(104, 102, core.MsgHeaterCmd) // webInterface → heaterActProc
	ipc.Seal()
	bad.IPC = ipc

	cfg := bas.DefaultScenario()
	tb := bas.NewTestbed(cfg)
	_, err := bas.Deploy(bas.PlatformMinix, tb, cfg, bas.DeployOptions{Policy: bad})
	if err == nil {
		t.Fatal("gate should reject the over-permissive matrix")
	}
	if !strings.Contains(err.Error(), "deny_path(webInterface, heaterActProc)") {
		t.Fatalf("gate error should name the violated property: %v", err)
	}

	// The same policy deploys when the gate is explicitly skipped.
	tb2 := bas.NewTestbed(cfg)
	if _, err := bas.Deploy(bas.PlatformMinix, tb2, cfg, bas.DeployOptions{Policy: bad, SkipPolicyCheck: true}); err != nil {
		t.Fatalf("SkipPolicyCheck deploy: %v", err)
	}
}

// TestAuditAgainstLiveMinixRun drives the deployed scenario and diffs the
// static matrix against the recorded IPC usage: exercised grants disappear
// from the audit, unexercised ones (the alarm path in a calm room, the ack
// the controller never sends the sensor) remain.
func TestAuditAgainstLiveMinixRun(t *testing.T) {
	cfg := bas.DefaultScenario()
	tb := bas.NewTestbed(cfg)
	policy := bas.MinixPolicy(false, false, core.QuotaUnlimited)
	if _, err := bas.Deploy(bas.PlatformMinix, tb, cfg, bas.DeployOptions{Policy: policy}); err != nil {
		t.Fatal(err)
	}
	tb.Machine.Run(30 * time.Second)

	log := tb.Machine.IPC()
	if !log.Used(bas.NameTempSensor, bas.NameTempControl, "mt1") {
		t.Fatalf("sensor samples should be recorded; log: %+v", log.Usages())
	}
	findings := polcheck.AuditMatrix(policy.IPC, log)
	unused := make(map[string]bool, len(findings))
	for _, f := range findings {
		unused[f.Check] = true
	}
	if unused["unused_grant(tempSensProc, tempProc, mt1)"] {
		t.Error("the exercised sensor grant must not be flagged")
	}
	if !unused["unused_grant(tempProc, alarmProc, mt3)"] {
		t.Errorf("the calm room never trips the alarm; expected that grant flagged, got %+v", findings)
	}
}
