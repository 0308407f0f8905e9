package bas

import (
	"fmt"

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

// LinuxScenarioDAC returns the static DAC model a PlatformLinux deployment
// without gateways boots, compiled from the embedded model, so the analysis
// cannot drift from the running system. hardened selects the
// unique-accounts variant; webRoot models the paper's privilege-escalation
// assumption by running the web interface as uid 0.
func LinuxScenarioDAC(hardened, webRoot bool) *polcheck.DACModel {
	model := &bindLinuxDAC(linuxDefault(false, false).dac[hardened].DAC).model
	for i, s := range model.Subjects {
		if webRoot && s.Name == NameWebInterface {
			model.Subjects[i].UID, model.Subjects[i].GID = 0, 0
		}
	}
	return model
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
