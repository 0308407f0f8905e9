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

func TestSyscallKindString(t *testing.T) {
	for k, want := range map[SyscallKind]string{
		SysFork: "fork", SysKill: "kill", SysExec: "exec", SysSetACID: "set_acid",
	} {
		if k.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(k), k.String(), want)
		}
	}
}
