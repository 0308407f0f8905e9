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
//
// A monitor has two halves. The Index is the certified graph's static edge
// index, built once per graph and shared read-only by every board deployed
// from it; a Monitor is one board's live origin labels, counters and edge
// cache over that Index. Demoting a subject on one board changes nothing
// another board sees.
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

// IndexOptions configures an Index: how recorded names map into the
// graph's namespace and which origin each subject was certified at. All of
// it is fixed by the deploy shape, so it belongs to the shared half.
type IndexOptions struct {
	// SubjectOf maps a kernel-recorded subject name to its graph subject
	// (polcheck.CapDLSubjectOf collapses seL4 thread names to components).
	// nil means identity. It runs on the IPC hot path, must not allocate,
	// and is called from every board sharing the index, so it must not
	// write shared state.
	SubjectOf func(string) string
	// ChannelNames maps kernel-side channel names to graph channel names
	// (the seL4 kernel names endpoints "comp.iface" while CapDL specs name
	// them "ep_comp_iface"). Missing names pass through unchanged. The
	// index reads the map and never writes it.
	ChannelNames map[string]string
	// Origins assigns each graph subject its static origin label; subjects
	// absent from the map default to OriginBoot.
	Origins map[string]Origin
}

// Options configures one board's Monitor.
type Options struct {
	// Events receives drift and demotion events; nil discards them (the
	// counters still advance).
	Events *obs.EventLog
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

// noSubject is the gov of an edge no subject governs (channel → channel).
const noSubject = -1

// edgeInfo is what a lookup must know: which subject's authority the edge
// exercises (an index into Index.subjects, or noSubject) and the origin
// label that authority was certified at.
type edgeInfo struct {
	gov int
	min Origin
}

// subject is one graph subject's name and static origin label.
type subject struct {
	name   string
	static Origin
}

// Index is the static half of a monitor: the certified graph's subjects
// with their static origins and its flow edges keyed for O(1) lookup, plus
// the name normalisation recorded traffic goes through. It is built once
// per certified graph and never written afterwards, so every board
// deployed from that graph shares one Index, from any goroutine. What a
// board mutates (live origin labels, counters, its edge-id cache) lives in
// its own Monitor.
type Index struct {
	subjectOf    func(string) string
	channelNames map[string]string
	subjects     []subject
	byName       map[string]int
	edges        map[edgeKey]edgeInfo
	pairs        map[pairKey]edgeInfo
	hasWildcard  bool
}

// NewIndex builds the static edge index of a certified access graph. The
// graph's flow edges become the O(1) lookup tables Observe checks against;
// device edges are skipped (device access is not IPC and is not recorded).
// Each edge is governed by its subject endpoint — the sender for
// subject→subject and subject→channel edges, the receiver for
// channel→subject edges — and requires that subject's static origin.
func NewIndex(g *polcheck.Graph, opts IndexOptions) *Index {
	x := &Index{
		subjectOf:    opts.SubjectOf,
		channelNames: opts.ChannelNames,
		byName:       make(map[string]int),
		edges:        make(map[edgeKey]edgeInfo),
		pairs:        make(map[pairKey]edgeInfo),
	}
	for _, name := range g.Subjects() {
		origin := OriginBoot
		if o, ok := opts.Origins[name]; ok {
			origin = o
		}
		x.byName[name] = len(x.subjects)
		x.subjects = append(x.subjects, subject{name: name, static: origin})
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
			info := edgeInfo{gov: noSubject}
			if id, ok := x.byName[gov]; ok {
				info = edgeInfo{gov: id, min: x.subjects[id].static}
			}
			for _, label := range e.Labels {
				if label == "mt*" {
					x.pairs[pairKey{src: n.Name, dst: e.To.Name}] = info
					x.hasWildcard = true
					continue
				}
				x.edges[edgeKey{src: n.Name, dst: e.To.Name, label: label}] = info
			}
		}
	}
	return x
}

// subjName normalises a kernel subject name into the graph namespace.
func (x *Index) subjName(name string) string {
	if x.subjectOf != nil {
		return x.subjectOf(name)
	}
	return name
}

// chanName normalises a kernel channel name into the graph namespace.
func (x *Index) chanName(name string) string {
	if mapped, ok := x.channelNames[name]; ok {
		return mapped
	}
	return name
}

// lookup resolves one recorded delivery to its certified edge, if any. The
// label tells which side is the channel: "send"/"signal" deliver subject →
// channel, "recv"/"wait" channel → subject, everything else (MINIX "mtN")
// subject → subject.
func (x *Index) lookup(src, dst, label string) (s, d string, info edgeInfo, ok bool) {
	switch label {
	case "send", "signal":
		s, d = x.subjName(src), x.chanName(dst)
	case "recv", "wait":
		s, d = x.chanName(src), x.subjName(dst)
	default:
		s, d = x.subjName(src), x.subjName(dst)
	}
	info, ok = x.edges[edgeKey{src: s, dst: d, label: label}]
	if !ok && x.hasWildcard {
		info, ok = x.pairs[pairKey{src: s, dst: d}]
	}
	return s, d, info, ok
}

// edgeView is what Observe knows about one board edge id: its names in
// the graph namespace and, for a certified edge, the board's live label
// slot of the governing subject and the origin the edge requires (cur is
// nil when the graph has no such edge). It holds no verdict — the origin
// check reads the live label on every delivery, so a Demote after the edge
// was cached still takes effect.
type edgeView struct {
	src, dst, label string
	cur             *Origin
	min             Origin
	gov             int
	resolved        bool
}

// Monitor is an online policy verifier for one board: a shared Index plus
// this board's live origin labels, counters and edge-id cache.
type Monitor struct {
	idx       *Index
	events    *obs.EventLog
	stats     Stats
	phObserve *perf.Phase

	// current holds each subject's live origin label, by its index in
	// idx.subjects; ungoverned is the label slot of edges no subject
	// governs, which is never demoted.
	current    []Origin
	ungoverned Origin

	// table is the board edge table Observe's ids index; views caches one
	// edgeView per id, filled the first time the id is observed.
	table *obs.Edges
	views []edgeView
}

// New builds one board's monitor over a shared index, every subject at its
// static origin.
func New(idx *Index, opts Options) *Monitor {
	m := &Monitor{
		idx:       idx,
		events:    opts.Events,
		phObserve: opts.Profiler.HotPhase("monitor.observe"),
		current:   make([]Origin, len(idx.subjects)),
	}
	for i, s := range idx.subjects {
		m.current[i] = s.static
	}
	return m
}

// slot returns the board's live label slot for info's governing subject.
func (m *Monitor) slot(info edgeInfo) *Origin {
	if info.gov == noSubject {
		return &m.ungoverned
	}
	return &m.current[info.gov]
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
	s, d, info, ok := m.idx.lookup(e.Src, e.Dst, e.Label)
	v := edgeView{src: s, dst: d, label: e.Label, resolved: true}
	if ok {
		v.cur, v.min, v.gov = m.slot(info), info.min, info.gov
	}
	m.views[id] = v
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
	if v.cur == nil {
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
	if *v.cur < v.min {
		m.stats.OriginDrifts++
		m.events.Emit(obs.SecurityEvent{
			Kind:      obs.EventOriginDrift,
			Mechanism: obs.MechPolicyMonitor,
			Src:       v.src,
			Dst:       v.dst,
			Detail:    v.label + " requires origin " + v.min.String() + ", " + m.idx.subjects[v.gov].name + " is " + v.cur.String(),
		})
	}
}

// EdgeRef is one (src, dst, label) triple resolved against the certified
// graph once, so an enforcement point that asks about the same edge on
// every request (the tenant gateway, per role and route) pays the
// string-keyed lookup at construction, not per request. It points at its
// board's live label slot of the governing subject, so a resolved EdgeRef
// never goes stale and never reads another board's labels. The zero
// EdgeRef is an uncertified edge.
type EdgeRef struct {
	cur *Origin
	min Origin
}

// Edge resolves (src, dst, label) to its certified edge, if any, with the
// same normalisation Observe applies to recorded deliveries.
func (m *Monitor) Edge(src, dst, label string) EdgeRef {
	_, _, info, ok := m.idx.lookup(src, dst, label)
	if !ok {
		return EdgeRef{}
	}
	return EdgeRef{cur: m.slot(info), min: info.min}
}

// Live reports whether the edge is inside the current graph: certified,
// and not governed by a subject demoted below the edge's required origin.
// It reads the governing subject's live label, so a Demote after the edge
// was resolved takes effect at once. It emits nothing — callers that
// enforce (the tenant gateway) emit their own events.
func (r EdgeRef) Live() bool {
	return r.cur != nil && *r.cur >= r.min
}

// Demote lowers a subject's origin label — the dynamic response to a
// compromise verdict. Raising a label is refused; demotion is monotone
// until Demote's inverse (none exists) or redeploy. Returns true if the
// label actually dropped.
func (m *Monitor) Demote(subject string, to Origin) bool {
	id, ok := m.idx.byName[subject]
	if !ok || to >= m.current[id] {
		return false
	}
	from := m.current[id]
	m.current[id] = to
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
	id, ok := m.idx.byName[subject]
	if !ok {
		return OriginUntrusted, false
	}
	return m.current[id], true
}

// Stats returns the lifetime counters. Safe on a nil monitor (all zero).
func (m *Monitor) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	return m.stats
}
