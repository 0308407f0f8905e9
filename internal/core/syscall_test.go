package core

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestSyscallPolicyDenyByDefault(t *testing.T) {
	p := NewSyscallPolicy().Seal()
	ledger := NewQuotaLedger(p)
	err := ledger.Charge(100, SysKill)
	if err == nil {
		t.Fatal("empty policy allowed kill")
	}
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("denial does not match ErrDenied: %v", err)
	}
}

func TestSyscallGrantUnlimited(t *testing.T) {
	p := NewSyscallPolicy().Grant(100, SysFork).Seal()
	ledger := NewQuotaLedger(p)
	for i := 0; i < 1000; i++ {
		if err := ledger.Charge(100, SysFork); err != nil {
			t.Fatalf("charge %d: %v", i, err)
		}
	}
	if got := ledger.Remaining(100, SysFork); got != QuotaUnlimited {
		t.Fatalf("Remaining = %d, want unlimited", got)
	}
}

func TestSyscallQuotaExhaustion(t *testing.T) {
	p := NewSyscallPolicy().GrantQuota(104, SysFork, 3).Seal()
	ledger := NewQuotaLedger(p)
	for i := 0; i < 3; i++ {
		if err := ledger.Charge(104, SysFork); err != nil {
			t.Fatalf("charge %d: %v", i, err)
		}
	}
	err := ledger.Charge(104, SysFork)
	if err == nil {
		t.Fatal("4th fork allowed under quota 3")
	}
	if !errors.Is(err, ErrNoQuotaLeft) {
		t.Fatalf("exhaustion does not match ErrNoQuotaLeft: %v", err)
	}
	var denied *SyscallDeniedError
	if !errors.As(err, &denied) || !denied.Exhausted {
		t.Fatalf("want exhausted SyscallDeniedError, got %v", err)
	}
	if got := ledger.Remaining(104, SysFork); got != 0 {
		t.Fatalf("Remaining = %d, want 0", got)
	}
}

func TestQuotaLedgersAreIndependent(t *testing.T) {
	p := NewSyscallPolicy().GrantQuota(1, SysFork, 1).Seal()
	a, b := NewQuotaLedger(p), NewQuotaLedger(p)
	if err := a.Charge(1, SysFork); err != nil {
		t.Fatalf("ledger a: %v", err)
	}
	if err := b.Charge(1, SysFork); err != nil {
		t.Fatalf("ledger b should have its own budget: %v", err)
	}
	if err := a.Charge(1, SysFork); err == nil {
		t.Fatal("ledger a budget should be spent")
	}
}

func TestQuotaLedgerRequiresSealedPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewQuotaLedger accepted unsealed policy")
		}
	}()
	NewQuotaLedger(NewSyscallPolicy())
}

func TestSyscallProperty_QuotaNeverNegative(t *testing.T) {
	f := func(quota uint8, charges uint8) bool {
		q := int(quota % 32)
		p := NewSyscallPolicy().GrantQuota(7, SysExec, q).Seal()
		l := NewQuotaLedger(p)
		granted := 0
		for i := 0; i < int(charges); i++ {
			if l.Charge(7, SysExec) == nil {
				granted++
			}
		}
		rem := l.Remaining(7, SysExec)
		wantGranted := q
		if int(charges) < q {
			wantGranted = int(charges)
		}
		return granted == wantGranted && rem == q-granted && rem >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioPolicyShape(t *testing.T) {
	p := ScenarioPolicy()
	if !p.Sealed() {
		t.Fatal("scenario policy must come sealed")
	}
	m := p.IPC

	allowed := []struct {
		src, dst ACID
		mt       MsgType
	}{
		{ACIDTempSensor, ACIDTempControl, MsgSensorData},
		{ACIDTempControl, ACIDHeaterAct, MsgHeaterCmd},
		{ACIDTempControl, ACIDAlarmAct, MsgAlarmCmd},
		{ACIDWebInterface, ACIDTempControl, MsgSetpointUpdate},
		{ACIDWebInterface, ACIDTempControl, MsgStatusQuery},
		{ACIDTempControl, ACIDWebInterface, MsgAck},
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
		src, dst ACID
		mt       MsgType
	}{
		{ACIDWebInterface, ACIDTempControl, MsgSensorData},
		{ACIDWebInterface, ACIDHeaterAct, MsgHeaterCmd},
		{ACIDWebInterface, ACIDAlarmAct, MsgAlarmCmd},
		{ACIDWebInterface, ACIDHeaterAct, MsgAck},
		{ACIDHeaterAct, ACIDTempControl, MsgSensorData},
		{ACIDAlarmAct, ACIDHeaterAct, MsgHeaterCmd},
	}
	for _, c := range denied {
		if m.Allows(c.src, c.dst, c.mt) {
			t.Errorf("%s -> %s type %d should be denied",
				m.NameOf(c.src), m.NameOf(c.dst), c.mt)
		}
	}

	// Kill is granted only to the loader.
	if !p.Syscalls.Rule(ACIDScenario, SysKill).Allowed {
		t.Error("scenario loader should hold kill")
	}
	for _, id := range []ACID{ACIDTempSensor, ACIDTempControl, ACIDHeaterAct, ACIDAlarmAct, ACIDWebInterface} {
		if p.Syscalls.Rule(id, SysKill).Allowed {
			t.Errorf("acid %d should not hold kill", id)
		}
	}
	// The web interface can fork (residual fork-bomb exposure).
	if !p.Syscalls.Rule(ACIDWebInterface, SysFork).Allowed {
		t.Error("web interface should hold fork in the baseline policy")
	}
}

func TestScenarioPolicyWithForkQuota(t *testing.T) {
	p := ScenarioPolicyWithForkQuota(5)
	rule := p.Syscalls.Rule(ACIDWebInterface, SysFork)
	if !rule.Allowed || rule.Quota != 5 {
		t.Fatalf("rule = %+v, want allowed with quota 5", rule)
	}
	// IPC surface identical to the baseline.
	base := ScenarioPolicy()
	for _, src := range base.IPC.Subjects() {
		for _, dst := range base.IPC.Subjects() {
			if base.IPC.Mask(src, dst) != p.IPC.Mask(src, dst) {
				t.Fatalf("IPC cell %d->%d differs from baseline", src, dst)
			}
		}
	}
}

func TestSyscallKindString(t *testing.T) {
	for k, want := range map[SyscallKind]string{
		SysFork: "fork", SysKill: "kill", SysExec: "exec", SysSetACID: "set_acid",
	} {
		if k.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestScenarioPolicyWithGateway(t *testing.T) {
	p := ScenarioPolicyWithGateways(true, false)
	if !p.Sealed() {
		t.Fatal("gateway policy must come sealed")
	}
	m := p.IPC
	if !m.Allows(ACIDBACnetGateway, ACIDTempControl, MsgSetpointUpdate) ||
		!m.Allows(ACIDBACnetGateway, ACIDTempControl, MsgStatusQuery) {
		t.Fatal("gateway missing its management types")
	}
	// The gateway must have exactly the web interface's reach: nothing
	// toward the drivers or the sensor.
	for _, dst := range []ACID{ACIDHeaterAct, ACIDAlarmAct, ACIDTempSensor} {
		for mt := MsgType(0); mt <= 10; mt++ {
			if m.Allows(ACIDBACnetGateway, dst, mt) {
				t.Fatalf("gateway may send type %d to acid %d", mt, dst)
			}
		}
	}
	// Base scenario cells unchanged.
	base := ScenarioPolicy().IPC
	for _, src := range base.Subjects() {
		for _, dst := range base.Subjects() {
			if base.Mask(src, dst) != m.Mask(src, dst) {
				t.Fatalf("cell %d->%d differs from baseline", src, dst)
			}
		}
	}
}
