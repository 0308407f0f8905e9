package bas

import (
	"fmt"

	"mkbas/internal/linuxsim"
	"mkbas/internal/polcheck"
)

// ScenarioProperties is the static security contract of the Fig. 2 scenario,
// encoding the paper's Section IV-D attack goals as checkable assertions:
//
//   - the compromised web interface must not command actuators directly
//     (spoofing attack: forged MsgHeaterCmd / queue writes);
//   - the web interface must hold no destroy authority over the controller
//     (process-destruction attack: kill(2) / TCB_Suspend);
//   - the web interface's IPC surface is exactly one destination, the
//     controller's management interface ("the web interface has only one
//     capability, to communicate with the temperature controller process");
//   - and, so that a deny-everything policy cannot trivially pass, the
//     legitimate control flows must exist: sensor → controller → actuators,
//     web → controller.
//
// MINIX ACM and seL4 CapDL scenario policies satisfy every property; the
// default and root-escalated Linux DAC models violate the deny/kill/surface
// properties — the paper's outcome table, derived without booting a kernel.
func ScenarioProperties() []polcheck.Property {
	return []polcheck.Property{
		polcheck.DenyPath{From: NameWebInterface, To: NameHeaterAct},
		polcheck.DenyPath{From: NameWebInterface, To: NameAlarmAct},
		polcheck.NoKillAuthority{Subject: NameWebInterface, Target: NameTempControl},
		polcheck.OnlyEndpoint{Subject: NameWebInterface, Max: 1},
		polcheck.AllowPath{From: NameTempSensor, To: NameTempControl},
		polcheck.AllowPath{From: NameTempControl, To: NameHeaterAct},
		polcheck.AllowPath{From: NameTempControl, To: NameAlarmAct},
		polcheck.AllowPath{From: NameWebInterface, To: NameTempControl},
	}
}

// LinuxScenarioDAC builds the static DAC model of the PlatformLinux
// deployment — same account, mode, and ownership tables the boot path uses,
// so the analysis cannot drift from the running system. hardened selects the
// unique-accounts variant; webRoot models the paper's privilege-escalation
// assumption by running the web interface as uid 0.
func LinuxScenarioDAC(hardened, webRoot bool) *polcheck.DACModel {
	model := &polcheck.DACModel{}
	if !hardened {
		// The loader only exists in the same-account deployment (unique
		// accounts cannot be reached through fork).
		model.Subjects = append(model.Subjects, linuxSubject(NameScenario, false))
	}
	for _, r := range scenarioRoles {
		s := linuxSubject(r.name, hardened)
		if webRoot && r.name == NameWebInterface {
			s.UID, s.GID = 0, 0
		}
		model.Subjects = append(model.Subjects, s)
	}
	for _, q := range linuxQueues {
		owner := linuxAccount(q.creator, hardened)
		model.Queues = append(model.Queues, polcheck.DACObject{
			Name: q.name, OwnerUID: owner.uid, OwnerGID: owner.gid, Mode: linuxQueueMode(q.name, hardened),
		})
	}
	for _, r := range scenarioRoles {
		if r.device == "" {
			continue
		}
		owner := linuxAccount(r.name, hardened)
		model.Devices = append(model.Devices, polcheck.DACObject{
			Name: "/dev/" + string(r.device), OwnerUID: owner.uid, OwnerGID: owner.gid,
			Mode: linuxsim.Mode(0o600),
		})
	}
	return model
}

// linuxSubject is the named process as a DAC subject.
func linuxSubject(name string, hardened bool) polcheck.DACSubject {
	a := linuxAccount(name, hardened)
	return polcheck.DACSubject{Name: name, UID: a.uid, GID: a.gid}
}

// checkDeployPolicy is the pre-deploy gate: the platform's policy graph must
// satisfy every scenario property or the deployment refuses to boot.
func checkDeployPolicy(g *polcheck.Graph) error {
	report := polcheck.CheckProperties(g, ScenarioProperties())
	if !report.Pass() {
		return fmt.Errorf("bas: pre-deploy policy check failed on %s:\n%s",
			g.Platform, report.Text())
	}
	return nil
}
