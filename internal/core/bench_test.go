package core

import "testing"

func BenchmarkMatrixAllows(b *testing.B) {
	m := Fig3Matrix()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Allows(Fig3App2, Fig3App1, 2) // granted
		m.Allows(Fig3App2, Fig3App1, 1) // denied
	}
}

func BenchmarkQuotaLedgerCharge(b *testing.B) {
	p := NewSyscallPolicy().GrantQuota(1, SysFork, QuotaUnlimited).Seal()
	l := NewQuotaLedger(p)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Charge(1, SysFork); err != nil {
			b.Fatal(err)
		}
	}
}
