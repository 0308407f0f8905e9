// Package monitor is the online half of polcheck: a runtime verifier that
// watches every IPC delivery a kernel records and diffs it, event by event,
// against the static access graph the deployment was certified with at
// deploy time. The static gate (checkDeployPolicy) proves the policy sound
// before the board boots; the monitor proves the *running* board never
// leaves that policy — the runtime-verification step Efremov & Shchepetkov
// apply to an LSM, transplanted onto the simulated kernels.
//
// On top of the certified graph the monitor layers OAMAC-style origin
// labels: every subject carries a provenance tag (boot-image, operator,
// web-origin), and a compromise verdict can demote a subject to a lower
// origin at runtime. The monitor then verifies traffic against the *current*
// origin assignment, so a demoted subject's certified edges turn into
// origin-drift findings the moment it next uses them — the dynamically
// shrunken access graph OAMAC argues for.
//
// The hot path is allocation-free: Observe receives the board's interned
// edge id and indexes a per-edge cache of the normalised names and the
// certified edge, then compares two origin labels. The string-keyed lookup
// runs once per edge, the first time it is observed, so the monitor can
// stay attached through million-event campaigns without disturbing the E4
// overhead numbers it is benchmarked against.
package monitor

import (
	"fmt"

	"mkbas/internal/machine"
	"mkbas/internal/obs"
	"mkbas/internal/perf"
	"mkbas/internal/polcheck"
)

// Origin is an OAMAC-style provenance label, ordered by trust: a label
// dominates (may act for) every label below it.
type Origin uint8

// The origin lattice, least trusted first.
const (
	// OriginUntrusted is the demotion sink: a subject judged compromised.
	OriginUntrusted Origin = iota
	// OriginWeb marks code reachable from the building's web surface.
	OriginWeb
	// OriginOperator marks operator-supplied control logic.
	OriginOperator
	// OriginBoot marks code from the verified boot image — drivers,
	// actuators, loaders. The default for unlabelled subjects.
	OriginBoot
)

// String names the label.
func (o Origin) String() string {
	switch o {
	case OriginUntrusted:
		return "untrusted"
	case OriginWeb:
		return "web"
	case OriginOperator:
		return "operator"
	case OriginBoot:
		return "boot"
	default:
		return fmt.Sprintf("Origin(%d)", uint8(o))
	}
}

// Options configures a Monitor.
type Options struct {
	// Events receives drift and demotion events; nil discards them (the
	// counters still advance).
	Events *obs.EventLog
	// SubjectOf maps a kernel-recorded subject name to its graph subject
	// (polcheck.CapDLSubjectOf collapses seL4 thread names to components).
	// nil means identity. It runs on the IPC hot path and must not
	// allocate.
	SubjectOf func(string) string
	// ChannelNames maps kernel-side channel names to graph channel names
	// (the seL4 kernel names endpoints "comp.iface" while CapDL specs name
	// them "ep_comp_iface"). Missing names pass through unchanged.
	ChannelNames map[string]string
	// Origins assigns each graph subject its static origin label; subjects
	// absent from the map default to OriginBoot.
	Origins map[string]Origin
	// Profiler books Observe's host time into the "monitor.observe" phase.
	// nil profiles nothing. Observe is on the IPC hot path, so the phase is
	// time-only (no allocation counting) and the scope itself allocates
	// nothing — the AllocsPerRun(Observe)==0 guarantee holds either way.
	Profiler *perf.Profiler
}

// Stats are the monitor's lifetime counters.
type Stats struct {
	// Observed is the total number of deliveries checked.
	Observed int64 `json:"observed"`
	// PolicyDrifts counts deliveries outside the certified graph.
	PolicyDrifts int64 `json:"policy_drifts"`
	// OriginDrifts counts in-graph deliveries whose governing subject had
	// been demoted below the edge's required origin.
	OriginDrifts int64 `json:"origin_drifts"`
	// Demotions counts Demote calls that actually lowered a label.
	Demotions int64 `json:"demotions"`
}

// subjectState is one subject's live origin label.
type subjectState struct {
	name    string
	static  Origin
	current Origin
}

// edgeKey identifies one certified (src, dst, label) triple in the graph's
// namespace. Struct keys keep lookups allocation-free.
type edgeKey struct {
	src, dst, label string
}

// pairKey identifies a wildcard-certified (src, dst) pair ("mt*" ACM cells
// admit every message type).
type pairKey struct {
	src, dst string
}

// edgeInfo is what a lookup must know: which subject's authority the edge
// exercises and the origin label that authority was certified at.
type edgeInfo struct {
	gov *subjectState
	min Origin
}

// edgeView is what Observe knows about one board edge id: its names in
// the graph namespace and its certified edge (nil when the graph has none).
// It holds no verdict — the origin check reads the governing subject's live
// label on every delivery, so a Demote after the edge was cached still
// takes effect.
type edgeView struct {
	src, dst, label string
	info            *edgeInfo
	resolved        bool
}

// Monitor is an online policy verifier for one board.
type Monitor struct {
	events       *obs.EventLog
	subjectOf    func(string) string
	channelNames map[string]string
	subjects     map[string]*subjectState
	edges        map[edgeKey]*edgeInfo
	pairs        map[pairKey]*edgeInfo
	hasWildcard  bool
	stats        Stats
	phObserve    *perf.Phase

	// table is the board edge table Observe's ids index; views caches one
	// edgeView per id, filled the first time the id is observed.
	table *obs.Edges
	views []edgeView
}

// New builds a monitor from a certified access graph. The graph's flow
// edges become the O(1) lookup tables Observe checks against; device edges
// are skipped (device access is not IPC and is not recorded). Each edge is
// governed by its subject endpoint — the sender for subject→subject and
// subject→channel edges, the receiver for channel→subject edges — and
// requires that subject's static origin.
func New(g *polcheck.Graph, opts Options) *Monitor {
	m := &Monitor{
		events:       opts.Events,
		subjectOf:    opts.SubjectOf,
		channelNames: opts.ChannelNames,
		subjects:     make(map[string]*subjectState),
		edges:        make(map[edgeKey]*edgeInfo),
		pairs:        make(map[pairKey]*edgeInfo),
		phObserve:    opts.Profiler.HotPhase("monitor.observe"),
	}
	for _, name := range g.Subjects() {
		origin := OriginBoot
		if o, ok := opts.Origins[name]; ok {
			origin = o
		}
		m.subjects[name] = &subjectState{name: name, static: origin, current: origin}
	}
	for _, n := range g.Nodes() {
		if n.Kind == polcheck.KindDevice {
			continue
		}
		for _, e := range g.FlowsFrom(n) {
			if e.To.Kind == polcheck.KindDevice {
				continue
			}
			gov := n.Name
			if n.Kind == polcheck.KindChannel {
				gov = e.To.Name
			}
			info := &edgeInfo{gov: m.subjects[gov]}
			if info.gov != nil {
				info.min = info.gov.static
			}
			for _, label := range e.Labels {
				if label == "mt*" {
					m.pairs[pairKey{src: n.Name, dst: e.To.Name}] = info
					m.hasWildcard = true
					continue
				}
				m.edges[edgeKey{src: n.Name, dst: e.To.Name, label: label}] = info
			}
		}
	}
	return m
}

// subjName normalises a kernel subject name into the graph namespace.
func (m *Monitor) subjName(name string) string {
	if m.subjectOf != nil {
		return m.subjectOf(name)
	}
	return name
}

// chanName normalises a kernel channel name into the graph namespace.
func (m *Monitor) chanName(name string) string {
	if mapped, ok := m.channelNames[name]; ok {
		return mapped
	}
	return name
}

// lookup resolves one recorded delivery to its certified edge, if any. The
// label tells which side is the channel: "send"/"signal" deliver subject →
// channel, "recv"/"wait" channel → subject, everything else (MINIX "mtN")
// subject → subject.
func (m *Monitor) lookup(src, dst, label string) (string, string, *edgeInfo) {
	var s, d string
	switch label {
	case "send", "signal":
		s, d = m.subjName(src), m.chanName(dst)
	case "recv", "wait":
		s, d = m.chanName(src), m.subjName(dst)
	default:
		s, d = m.subjName(src), m.subjName(dst)
	}
	info := m.edges[edgeKey{src: s, dst: d, label: label}]
	if info == nil && m.hasWildcard {
		info = m.pairs[pairKey{src: s, dst: d}]
	}
	return s, d, info
}

// Attach subscribes the monitor to a board's IPC log: every delivery the
// log records is observed, its edge id resolved against the log's table.
func (m *Monitor) Attach(log *machine.IPCLog) {
	m.table = log.Edges()
	m.views = nil
	log.SetObserver(m.Observe)
}

// view returns id's cached edgeView, resolving it on first sight.
func (m *Monitor) view(id obs.EdgeID) *edgeView {
	if int(id) < len(m.views) && m.views[id].resolved {
		return &m.views[id]
	}
	if n := int(id) + 1 - len(m.views); n > 0 {
		m.views = append(m.views, make([]edgeView, n)...)
	}
	e := m.table.Edge(id)
	s, d, info := m.lookup(e.Src, e.Dst, e.Label)
	m.views[id] = edgeView{src: s, dst: d, label: e.Label, info: info, resolved: true}
	return &m.views[id]
}

// Observe checks one recorded delivery against the current graph. It is the
// IPCLog observer Attach installs, and id must come from the attached log's
// table. The in-graph path performs no allocation; drift emits a typed
// security event (and may allocate — drift is the exceptional path).
func (m *Monitor) Observe(id obs.EdgeID) {
	sc := m.phObserve.Begin()
	defer sc.End()
	m.stats.Observed++
	v := m.view(id)
	info := v.info
	if info == nil {
		m.stats.PolicyDrifts++
		m.events.Emit(obs.SecurityEvent{
			Kind:      obs.EventPolicyDrift,
			Mechanism: obs.MechPolicyMonitor,
			Src:       v.src,
			Dst:       v.dst,
			Detail:    v.label,
		})
		return
	}
	if info.gov != nil && info.gov.current < info.min {
		m.stats.OriginDrifts++
		m.events.Emit(obs.SecurityEvent{
			Kind:      obs.EventOriginDrift,
			Mechanism: obs.MechPolicyMonitor,
			Src:       v.src,
			Dst:       v.dst,
			Detail:    v.label + " requires origin " + info.min.String() + ", " + info.gov.name + " is " + info.gov.current.String(),
		})
	}
}

// EdgeRef is one (src, dst, label) triple resolved against the certified
// graph once, so an enforcement point that asks about the same edge on
// every request (the tenant gateway, per role and route) pays the
// string-keyed lookup at construction, not per request. The monitor's edge
// tables are built only in New, so a resolved EdgeRef never goes stale.
// The zero EdgeRef is an uncertified edge.
type EdgeRef struct {
	info *edgeInfo
}

// Edge resolves (src, dst, label) to its certified edge, if any, with the
// same normalisation Observe applies to recorded deliveries.
func (m *Monitor) Edge(src, dst, label string) EdgeRef {
	_, _, info := m.lookup(src, dst, label)
	return EdgeRef{info: info}
}

// Live reports whether the edge is inside the current graph: certified,
// and not governed by a subject demoted below the edge's required origin.
// It reads the governing subject's live label, so a Demote after the edge
// was resolved takes effect at once. It emits nothing — callers that
// enforce (the tenant gateway) emit their own events.
func (r EdgeRef) Live() bool {
	info := r.info
	if info == nil {
		return false
	}
	return info.gov == nil || info.gov.current >= info.min
}

// Demote lowers a subject's origin label — the dynamic response to a
// compromise verdict. Raising a label is refused; demotion is monotone
// until Demote's inverse (none exists) or redeploy. Returns true if the
// label actually dropped.
func (m *Monitor) Demote(subject string, to Origin) bool {
	s := m.subjects[subject]
	if s == nil || to >= s.current {
		return false
	}
	from := s.current
	s.current = to
	m.stats.Demotions++
	m.events.Emit(obs.SecurityEvent{
		Kind:      obs.EventOriginDemoted,
		Mechanism: obs.MechPolicyMonitor,
		Src:       subject,
		Detail:    fmt.Sprintf("%s -> %s", from, to),
	})
	return true
}

// CurrentOrigin reports a subject's live origin label; ok is false for
// unknown subjects.
func (m *Monitor) CurrentOrigin(subject string) (Origin, bool) {
	s := m.subjects[subject]
	if s == nil {
		return OriginUntrusted, false
	}
	return s.current, true
}

// Stats returns the lifetime counters. Safe on a nil monitor (all zero).
func (m *Monitor) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	return m.stats
}
