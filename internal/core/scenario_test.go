package core_test

// The scenario policy is compiled from the AADL model by internal/bas, which
// imports core; these tests read it from there, in an external test package,
// to pin its shape against the paper's Section IV attacks.

import (
	"testing"

	"mkbas/internal/bas"
	"mkbas/internal/core"
)

// The scenario's subjects, at the ac_ids its model assigns (Section IV:
// "TempSensorProcess.imp is 100, and TempControlProcess.imp is 101 etc.").
const (
	acidTempSensor core.ACID = 100 + iota
	acidTempControl
	acidHeaterAct
	acidAlarmAct
	acidWebInterface
	acidScenario
	acidBACnetGateway
)

func TestScenarioPolicyShape(t *testing.T) {
	p := bas.MinixPolicy(false, false, core.QuotaUnlimited)
	if !p.Sealed() {
		t.Fatal("scenario policy must come sealed")
	}
	m := p.IPC

	allowed := []struct {
		src, dst core.ACID
		mt       core.MsgType
	}{
		{acidTempSensor, acidTempControl, core.MsgSensorData},
		{acidTempControl, acidHeaterAct, core.MsgHeaterCmd},
		{acidTempControl, acidAlarmAct, core.MsgAlarmCmd},
		{acidWebInterface, acidTempControl, core.MsgSetpointUpdate},
		{acidWebInterface, acidTempControl, core.MsgStatusQuery},
		{acidTempControl, acidWebInterface, core.MsgAck},
	}
	for _, c := range allowed {
		if !m.Allows(c.src, c.dst, c.mt) {
			t.Errorf("%s -> %s type %d should be allowed",
				m.NameOf(c.src), m.NameOf(c.dst), c.mt)
		}
	}

	// The attacks of Section IV-D, as matrix lookups: the web interface must
	// not be able to impersonate the sensor or command the actuators.
	denied := []struct {
		src, dst core.ACID
		mt       core.MsgType
	}{
		{acidWebInterface, acidTempControl, core.MsgSensorData},
		{acidWebInterface, acidHeaterAct, core.MsgHeaterCmd},
		{acidWebInterface, acidAlarmAct, core.MsgAlarmCmd},
		{acidWebInterface, acidHeaterAct, core.MsgAck},
		{acidHeaterAct, acidTempControl, core.MsgSensorData},
		{acidAlarmAct, acidHeaterAct, core.MsgHeaterCmd},
	}
	for _, c := range denied {
		if m.Allows(c.src, c.dst, c.mt) {
			t.Errorf("%s -> %s type %d should be denied",
				m.NameOf(c.src), m.NameOf(c.dst), c.mt)
		}
	}

	// Kill is granted only to the loader.
	if !p.Syscalls.Rule(acidScenario, core.SysKill).Allowed {
		t.Error("scenario loader should hold kill")
	}
	for _, id := range []core.ACID{acidTempSensor, acidTempControl, acidHeaterAct, acidAlarmAct, acidWebInterface} {
		if p.Syscalls.Rule(id, core.SysKill).Allowed {
			t.Errorf("acid %d should not hold kill", id)
		}
	}
	// The web interface can fork (residual fork-bomb exposure).
	if !p.Syscalls.Rule(acidWebInterface, core.SysFork).Allowed {
		t.Error("web interface should hold fork in the baseline policy")
	}
}

func TestScenarioPolicyWithForkQuota(t *testing.T) {
	p := bas.MinixPolicy(false, false, 5)
	rule := p.Syscalls.Rule(acidWebInterface, core.SysFork)
	if !rule.Allowed || rule.Quota != 5 {
		t.Fatalf("rule = %+v, want allowed with quota 5", rule)
	}
	// IPC surface identical to the baseline.
	base := bas.MinixPolicy(false, false, core.QuotaUnlimited)
	for _, src := range base.IPC.Subjects() {
		for _, dst := range base.IPC.Subjects() {
			if base.IPC.Mask(src, dst) != p.IPC.Mask(src, dst) {
				t.Fatalf("IPC cell %d->%d differs from baseline", src, dst)
			}
		}
	}
}

func TestScenarioPolicyWithGateway(t *testing.T) {
	p := bas.MinixPolicy(true, false, core.QuotaUnlimited)
	if !p.Sealed() {
		t.Fatal("gateway policy must come sealed")
	}
	m := p.IPC
	if !m.Allows(acidBACnetGateway, acidTempControl, core.MsgSetpointUpdate) ||
		!m.Allows(acidBACnetGateway, acidTempControl, core.MsgStatusQuery) {
		t.Fatal("gateway missing its management types")
	}
	// The gateway must have exactly the web interface's reach: nothing
	// toward the drivers or the sensor.
	for _, dst := range []core.ACID{acidHeaterAct, acidAlarmAct, acidTempSensor} {
		for mt := core.MsgType(0); mt <= 10; mt++ {
			if m.Allows(acidBACnetGateway, dst, mt) {
				t.Fatalf("gateway may send type %d to acid %d", mt, dst)
			}
		}
	}
	// Base scenario cells unchanged.
	base := bas.MinixPolicy(false, false, core.QuotaUnlimited).IPC
	for _, src := range base.Subjects() {
		for _, dst := range base.Subjects() {
			if base.Mask(src, dst) != m.Mask(src, dst) {
				t.Fatalf("cell %d->%d differs from baseline", src, dst)
			}
		}
	}
}
