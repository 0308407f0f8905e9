package core

import (
	"fmt"
	"sort"
)

// SyscallKind names a kernel service governed by the process-management
// server's ACM auditing (Section IV-D.2: "the policy explicitly disallowed
// the web interface process to use kill system call").
type SyscallKind int

// Audited kernel services.
const (
	// SysFork covers fork2() — creating new processes.
	SysFork SyscallKind = iota + 1
	// SysKill covers kill() — destroying other processes.
	SysKill
	// SysExec covers replacing a process image.
	SysExec
	// SysSetACID covers assigning access-control identities (loader only).
	SysSetACID
)

// String names the syscall kind.
func (k SyscallKind) String() string {
	switch k {
	case SysFork:
		return "fork"
	case SysKill:
		return "kill"
	case SysExec:
		return "exec"
	case SysSetACID:
		return "set_acid"
	default:
		return fmt.Sprintf("SyscallKind(%d)", int(k))
	}
}

// QuotaUnlimited marks a syscall grant with no invocation budget.
const QuotaUnlimited = -1

// SyscallRule is one grant: whether a subject may invoke a service and how
// many times (the paper's proposed "give each system call a quota" extension;
// we implement it for E8).
type SyscallRule struct {
	Allowed bool
	// Quota is the remaining invocation budget; QuotaUnlimited disables
	// budgeting.
	Quota int
}

// SyscallPolicy maps subjects to their audited-service grants. Like the
// Matrix it is built at boot and sealed; unlike the Matrix the remaining
// quotas decay at runtime (tracked per booted kernel, not here — the policy
// itself stays immutable, see QuotaLedger).
type SyscallPolicy struct {
	rules  map[ACID]map[SyscallKind]SyscallRule
	sealed bool
}

// NewSyscallPolicy returns an empty, unsealed policy. The default is
// deny-all: subjects must be granted each audited service explicitly.
func NewSyscallPolicy() *SyscallPolicy {
	return &SyscallPolicy{rules: make(map[ACID]map[SyscallKind]SyscallRule)}
}

// Grant allows subject to invoke kind without a budget.
func (p *SyscallPolicy) Grant(subject ACID, kind SyscallKind) *SyscallPolicy {
	return p.GrantQuota(subject, kind, QuotaUnlimited)
}

// GrantQuota allows subject to invoke kind at most quota times.
func (p *SyscallPolicy) GrantQuota(subject ACID, kind SyscallKind, quota int) *SyscallPolicy {
	if p.sealed {
		panic(ErrSealed)
	}
	row, ok := p.rules[subject]
	if !ok {
		row = make(map[SyscallKind]SyscallRule)
		p.rules[subject] = row
	}
	row[kind] = SyscallRule{Allowed: true, Quota: quota}
	return p
}

// Seal freezes the policy.
func (p *SyscallPolicy) Seal() *SyscallPolicy {
	p.sealed = true
	return p
}

// Sealed reports whether the policy is frozen.
func (p *SyscallPolicy) Sealed() bool { return p.sealed }

// Rule returns the grant for (subject, kind); absent grants are deny.
func (p *SyscallPolicy) Rule(subject ACID, kind SyscallKind) SyscallRule {
	return p.rules[subject][kind]
}

// Subjects lists every subject with at least one grant, ascending.
func (p *SyscallPolicy) Subjects() []ACID {
	out := make([]ACID, 0, len(p.rules))
	for id := range p.rules {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SyscallDeniedError reports an audited-service denial.
type SyscallDeniedError struct {
	Subject ACID
	Kind    SyscallKind
	// Exhausted is true when the subject held a grant but spent its quota.
	Exhausted bool
}

func (e *SyscallDeniedError) Error() string {
	if e.Exhausted {
		return fmt.Sprintf("core: syscall %v denied for acid %d: quota exhausted", e.Kind, e.Subject)
	}
	return fmt.Sprintf("core: syscall %v denied for acid %d by policy", e.Kind, e.Subject)
}

// Is matches ErrNoQuotaLeft for exhausted grants and ErrDenied for plain
// denials.
func (e *SyscallDeniedError) Is(target error) bool {
	if e.Exhausted && target == ErrNoQuotaLeft {
		return true
	}
	return target == ErrDenied
}

// QuotaLedger tracks the runtime-remaining budgets for one booted kernel
// against an immutable SyscallPolicy.
type QuotaLedger struct {
	policy    *SyscallPolicy
	remaining map[ACID]map[SyscallKind]int
	// denials holds one error per distinct denial, handed out again on
	// every repeat, so a subject retrying a denied call allocates nothing.
	denials map[SyscallDeniedError]*SyscallDeniedError
}

// NewQuotaLedger creates a ledger over a sealed policy.
func NewQuotaLedger(policy *SyscallPolicy) *QuotaLedger {
	if !policy.Sealed() {
		panic(ErrNotSealed)
	}
	return &QuotaLedger{
		policy:    policy,
		remaining: make(map[ACID]map[SyscallKind]int),
	}
}

// Charge authorises one invocation of kind by subject, decrementing the
// budget when one applies. It returns a *SyscallDeniedError on deny or
// exhaustion; repeats of one denial return the same error value.
func (l *QuotaLedger) Charge(subject ACID, kind SyscallKind) error {
	rule := l.policy.Rule(subject, kind)
	if !rule.Allowed {
		return l.denied(SyscallDeniedError{Subject: subject, Kind: kind})
	}
	if rule.Quota == QuotaUnlimited {
		return nil
	}
	row, ok := l.remaining[subject]
	if !ok {
		row = make(map[SyscallKind]int)
		l.remaining[subject] = row
	}
	rem, seen := row[kind]
	if !seen {
		rem = rule.Quota
	}
	if rem <= 0 {
		return l.denied(SyscallDeniedError{Subject: subject, Kind: kind, Exhausted: true})
	}
	row[kind] = rem - 1
	return nil
}

// denied returns the ledger's error value for one distinct denial.
func (l *QuotaLedger) denied(d SyscallDeniedError) *SyscallDeniedError {
	if err, ok := l.denials[d]; ok {
		return err
	}
	if l.denials == nil {
		l.denials = make(map[SyscallDeniedError]*SyscallDeniedError)
	}
	err := &d
	l.denials[d] = err
	return err
}

// Remaining reports the unspent budget for (subject, kind);
// QuotaUnlimited when no budget applies, 0 when denied or spent.
func (l *QuotaLedger) Remaining(subject ACID, kind SyscallKind) int {
	rule := l.policy.Rule(subject, kind)
	if !rule.Allowed {
		return 0
	}
	if rule.Quota == QuotaUnlimited {
		return QuotaUnlimited
	}
	if row, ok := l.remaining[subject]; ok {
		if rem, seen := row[kind]; seen {
			return rem
		}
	}
	return rule.Quota
}

// Policy bundles the two enforcement surfaces a security-enhanced kernel
// consumes: the IPC matrix and the audited-syscall grants.
type Policy struct {
	IPC      *Matrix
	Syscalls *SyscallPolicy
}

// NewPolicy returns an empty, unsealed policy bundle.
func NewPolicy() *Policy {
	return &Policy{IPC: NewMatrix(), Syscalls: NewSyscallPolicy()}
}

// Seal freezes both surfaces.
func (p *Policy) Seal() *Policy {
	p.IPC.Seal()
	p.Syscalls.Seal()
	return p
}

// Sealed reports whether both surfaces are frozen.
func (p *Policy) Sealed() bool { return p.IPC.Sealed() && p.Syscalls.Sealed() }
