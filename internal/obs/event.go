package obs

import (
	"slices"
	"sort"
)

// Mechanism names the mediation layer that produced a security event —
// the platform-neutral vocabulary the paper's outcome table compares.
type Mechanism string

const (
	// MechACM is the MINIX access control matrix (IPC permission bitmasks).
	MechACM Mechanism = "acm"
	// MechSyscallMask is the MINIX PM's per-process system-call mask and
	// fork/kill quota ledger.
	MechSyscallMask Mechanism = "syscall-mask"
	// MechCapability is seL4 capability possession and rights checking.
	MechCapability Mechanism = "capability"
	// MechDAC is Linux discretionary access control (uid/gid/mode).
	MechDAC Mechanism = "dac"
	// MechKernel marks events enforced by the kernel itself rather than a
	// security policy: generic limits (process table exhaustion, rlimits)
	// and per-process kernel privileges (MINIX's kernel-call and device
	// privileges).
	MechKernel Mechanism = "kernel"
	// MechRecovery marks events produced by a recovery service (MINIX RS,
	// the seL4 monitor component, the Linux supervisor) rather than a
	// mediation decision.
	MechRecovery Mechanism = "recovery"
	// MechFaultInject marks events produced by the fault-injection campaign
	// layer itself, so chaos activity is distinguishable from real denials.
	MechFaultInject Mechanism = "fault-inject"
	// MechSecureProxy marks events produced by the BACnet secure proxy
	// (Fig. 1's bump-in-the-wire): frames dropped for failing the MAC or the
	// freshness check.
	MechSecureProxy Mechanism = "secure-proxy"
	// MechPolicyMonitor marks events produced by the online policy monitor
	// (internal/polcheck/monitor): observed traffic diffed against the
	// certified static access graph, not a kernel mediation decision.
	MechPolicyMonitor Mechanism = "policy-monitor"
	// MechResilience marks events produced by the building resilience layer:
	// supervision-loss detection in room gateways, head-end failover, and
	// degraded-mode transitions — availability machinery, not mediation.
	MechResilience Mechanism = "resilience"
	// MechSession is the tenant API tier's session layer: token lookup and
	// revocation. A denial here means the caller never authenticated —
	// stolen-token replay after revocation dies at this layer.
	MechSession Mechanism = "session-auth"
	// MechRBAC is the tenant API tier's role-based authorisation check,
	// backed by the certified tenant access graph: the role's edge to the
	// gateway must carry the requested route label.
	MechRBAC Mechanism = "rbac"
	// MechRateLimit is the tenant API tier's per-principal token bucket.
	MechRateLimit Mechanism = "rate-limit"
	// MechBackpressure is the tenant API tier's connection/capacity guard:
	// requests shed with 503 when the per-tick admission budget is spent.
	MechBackpressure Mechanism = "backpressure"
)

// EventKind classifies a security event.
type EventKind string

const (
	// EventIPCDenied is a refused message delivery (ACM or DAC refused a
	// send/receive/open).
	EventIPCDenied EventKind = "ipc-denied"
	// EventCapFault is an seL4 capability fault: invalid slot or missing
	// rights on an invocation.
	EventCapFault EventKind = "cap-fault"
	// EventKillDenied is a refused kill/suspend attempt.
	EventKillDenied EventKind = "kill-denied"
	// EventKill is a kill/suspend attempt that the platform allowed — on a
	// compromised web process this is the event that shows DAC failing.
	EventKill EventKind = "kill"
	// EventForkDenied is a refused process creation (quota or table limit).
	EventForkDenied EventKind = "fork-denied"
	// EventSyscallDenied is a refused non-IPC system call (PM syscall-mask
	// or privilege checks outside kill/fork).
	EventSyscallDenied EventKind = "syscall-denied"
	// EventRestart is a successful reincarnation of a crashed process by a
	// recovery service.
	EventRestart EventKind = "restart"
	// EventRestartGiveUp is a recovery service abandoning an image after
	// exhausting its restart budget.
	EventRestartGiveUp EventKind = "restart-give-up"
	// EventFaultInjected is a fault-campaign fault firing at its scheduled
	// virtual instant.
	EventFaultInjected EventKind = "fault-injected"
	// EventFrameRejected is a field-bus frame dropped by the secure proxy:
	// bad MAC (spoofing) or stale nonce (replay).
	EventFrameRejected EventKind = "frame-rejected"
	// EventPolicyDrift is an observed IPC delivery (or bus dial) outside the
	// certified static access graph — the running board has drifted from the
	// policy it was verified against at deploy time.
	EventPolicyDrift EventKind = "policy-drift"
	// EventOriginDrift is an in-graph delivery whose governing subject's
	// *current* origin label no longer dominates the edge's required origin:
	// traffic that was certified for boot-image provenance issued by a
	// subject demoted to a lower origin after a compromise verdict.
	EventOriginDrift EventKind = "origin-drift"
	// EventOriginDemoted records the monitor shrinking a subject's origin
	// label (e.g. web-origin -> untrusted after a compromise verdict).
	EventOriginDemoted EventKind = "origin-demoted"
	// EventSupervisionLost is a room gateway entering degraded mode: no
	// verified supervisory traffic for the staleness window, so the room
	// falls back to its last-committed setpoint and local failsafe rules.
	EventSupervisionLost EventKind = "supervision-lost"
	// EventSupervisionRestored is a degraded room re-converging: verified
	// supervisory traffic reached the gateway again.
	EventSupervisionRestored EventKind = "supervision-restored"
	// EventHeadEndFailover is the standby head-end taking over after the
	// primary went silent (stamped on every room's board at takeover).
	EventHeadEndFailover EventKind = "headend-failover"
	// EventRoomQuarantined is the head-end refusing to poll a room whose
	// frames repeatedly failed secure-proxy verification.
	EventRoomQuarantined EventKind = "room-quarantined"
	// EventAuthDenied is a tenant API request refused at the session layer:
	// unknown, malformed, or revoked token (HTTP 401).
	EventAuthDenied EventKind = "auth-denied"
	// EventAuthzDenied is an authenticated tenant API request refused by
	// role-based authorisation: the principal's role has no certified edge
	// for the route, or an occupant reached outside their own room (403).
	EventAuthzDenied EventKind = "authz-denied"
	// EventRateLimited is a tenant API request shed by the per-principal
	// token bucket (HTTP 429).
	EventRateLimited EventKind = "rate-limited"
	// EventOverload is a tenant API request shed by connection backpressure
	// before any per-principal work (HTTP 503).
	EventOverload EventKind = "overload"
)

// SecurityEvent is one mediation decision in the platform-neutral schema:
// which board, which mechanism, who asked, who was the target, and whether
// the platform refused. Denied=false events record mediated actions that
// were *allowed* — the interesting ones for the paper are allowed kills.
type SecurityEvent struct {
	At        Time      `json:"at_ns"`
	Platform  string    `json:"platform"`
	Kind      EventKind `json:"kind"`
	Mechanism Mechanism `json:"mechanism"`
	Denied    bool      `json:"denied"`
	Src       string    `json:"src"`
	Dst       string    `json:"dst,omitempty"`
	Detail    string    `json:"detail,omitempty"`
}

// EventLog is the unified security-event stream: a bounded ring of recent
// events plus lifetime totals per (kind, mechanism, denied) that survive
// ring eviction. Denied snapshots the ring's denials compactly for reports.
// The nil EventLog discards everything.
type EventLog struct {
	now      func() Time
	platform string
	cap      int
	events   []SecurityEvent
	head     int
	total    int64
	dropped  int64
	// totals holds one row per distinct key, in first-seen order. A board
	// or gateway sees a handful of distinct keys, so a linear scan, whose
	// string compares mostly stop at a length mismatch or a shared
	// constant's pointer, beats hashing two strings on every Emit.
	totals []EventTotal
}

// NewEventLog creates an event stream; capacity <= 0 means 16384 retained
// events.
func NewEventLog(now func() Time, capacity int) *EventLog {
	if now == nil {
		now = func() Time { return 0 }
	}
	if capacity <= 0 {
		capacity = 16384
	}
	return &EventLog{now: now, cap: capacity}
}

// SetPlatform sets the default platform stamp applied to events emitted
// without one. Each kernel personality calls this once at construction.
func (l *EventLog) SetPlatform(p string) {
	if l != nil {
		l.platform = p
	}
}

// Emit stamps e with the current virtual instant (and the default platform,
// if e carries none) and stores it.
func (l *EventLog) Emit(e SecurityEvent) {
	if l == nil {
		return
	}
	e.At = l.now()
	if e.Platform == "" {
		e.Platform = l.platform
	}
	l.total++
	l.count(e.Kind, e.Mechanism, e.Denied)
	if len(l.events) < l.cap {
		l.events = append(l.events, e)
	} else {
		l.events[l.head] = e
		l.head = (l.head + 1) % l.cap
		l.dropped++
	}
}

// count adds one to the (kind, mech, denied) row, appending it on first
// sight.
func (l *EventLog) count(kind EventKind, mech Mechanism, denied bool) {
	for i := range l.totals {
		t := &l.totals[i]
		if t.Kind == kind && t.Mechanism == mech && t.Denied == denied {
			t.Count++
			return
		}
	}
	l.totals = append(l.totals, EventTotal{Kind: kind, Mechanism: mech, Denied: denied, Count: 1})
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []SecurityEvent {
	if l == nil {
		return nil
	}
	out := make([]SecurityEvent, 0, len(l.events))
	out = append(out, l.events[l.head:]...)
	out = append(out, l.events[:l.head]...)
	return out
}

// Total reports the lifetime event count, including evicted events.
func (l *EventLog) Total() int64 {
	if l == nil {
		return 0
	}
	return l.total
}

// Dropped reports how many events the ring evicted.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// EventTotal is one lifetime aggregate row.
type EventTotal struct {
	Kind      EventKind `json:"kind"`
	Mechanism Mechanism `json:"mechanism"`
	Denied    bool      `json:"denied"`
	Count     int64     `json:"count"`
}

// Totals returns lifetime counts per (kind, mechanism, denied), sorted for
// stable reports.
func (l *EventLog) Totals() []EventTotal {
	if l == nil {
		return nil
	}
	return sortTotals(append(make([]EventTotal, 0, len(l.totals)), l.totals...))
}

// sortTotals sorts rows by kind, then mechanism, allowed before denied —
// the order every totals report shares.
func sortTotals(out []EventTotal) []EventTotal {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Mechanism != b.Mechanism {
			return a.Mechanism < b.Mechanism
		}
		return !a.Denied && b.Denied
	})
	return out
}

// DeniedTotal reports the lifetime number of denied events — the quick
// "did mediation fire" probe attack reports use.
func (l *EventLog) DeniedTotal() int64 {
	if l == nil {
		return 0
	}
	var n int64
	for _, t := range l.totals {
		if t.Denied {
			n += t.Count
		}
	}
	return n
}

// Mechanisms returns the distinct mechanisms that denied at least one
// action, sorted — "which layers stopped the attack".
func (l *EventLog) Mechanisms() []Mechanism {
	if l == nil {
		return nil
	}
	out := make([]Mechanism, 0, len(l.totals))
	for _, t := range l.totals {
		if t.Denied {
			out = append(out, t.Mechanism)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
