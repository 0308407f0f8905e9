package monitor

import (
	"strings"
	"testing"

	"mkbas/internal/machine"
	"mkbas/internal/obs"
	"mkbas/internal/polcheck"
)

// testGraph builds a small certified graph exercising every edge shape the
// monitor distinguishes:
//
//	ctrl  -> heater   mt1, mt2   (subject → subject, exact labels)
//	ctrl  -> sensor   mt*        (subject → subject, wildcard)
//	web   -> ep_cmd   send       (subject → channel, governed by sender)
//	ep_cmd -> ctrl    recv       (channel → subject, governed by receiver)
//	ctrl  -> dev_gpio write      (device edge: not IPC, never monitored)
func testGraph() *polcheck.Graph {
	g := polcheck.NewGraph("test")
	g.AddFlow(polcheck.Subject("ctrl"), polcheck.Subject("heater"), []string{"mt1", "mt2"}, "test")
	g.AddFlow(polcheck.Subject("ctrl"), polcheck.Subject("sensor"), []string{"mt*"}, "test")
	g.AddFlow(polcheck.Subject("web"), polcheck.Channel("ep_cmd"), []string{"send"}, "test")
	g.AddFlow(polcheck.Channel("ep_cmd"), polcheck.Subject("ctrl"), []string{"recv"}, "test")
	g.AddFlow(polcheck.Subject("ctrl"), polcheck.Device("dev_gpio"), []string{"write"}, "test")
	return g
}

// attach subscribes m to a fresh IPC log, which tests drive the way a
// kernel does: intern the edge, then record the delivery.
func attach(m *Monitor) *machine.IPCLog {
	log := machine.NewIPCLog()
	m.Attach(log)
	return log
}

// deliver records one delivery on (src, dst, label).
func deliver(log *machine.IPCLog, src, dst, label string) {
	log.Record(log.Edges().Intern(src, dst, label))
}

func testOrigins() map[string]Origin {
	return map[string]Origin{"web": OriginWeb, "ctrl": OriginOperator}
}

func TestObserveInGraphIsClean(t *testing.T) {
	events := obs.NewEventLog(nil, 0)
	m := New(NewIndex(testGraph(), IndexOptions{Origins: testOrigins()}), Options{Events: events})
	log := attach(m)
	for _, d := range [][3]string{
		{"ctrl", "heater", "mt1"},
		{"ctrl", "heater", "mt2"},
		{"ctrl", "sensor", "mt7"}, // wildcard cell admits any type
		{"web", "ep_cmd", "send"},
		{"ep_cmd", "ctrl", "recv"},
	} {
		deliver(log, d[0], d[1], d[2])
	}
	st := m.Stats()
	if st.Observed != 5 || st.PolicyDrifts != 0 || st.OriginDrifts != 0 {
		t.Fatalf("stats = %+v, want 5 clean observations", st)
	}
	if n := len(events.Events()); n != 0 {
		t.Fatalf("clean traffic emitted %d events", n)
	}
}

func TestObserveInGraphAllocatesNothing(t *testing.T) {
	// The monitor rides the IPC hot path of every kernel binding; the E4
	// overhead budget only holds if in-graph observation is allocation-free
	// (exact edges and wildcard pairs alike), with a live event log
	// attached — both called alone and through the log's Record, which is
	// how every kernel reaches it.
	m := New(NewIndex(testGraph(), IndexOptions{Origins: testOrigins()}), Options{Events: obs.NewEventLog(nil, 0)})
	log := attach(m)
	for _, d := range [][3]string{
		{"ctrl", "heater", "mt1"},  // exact subject→subject
		{"ctrl", "sensor", "mt9"},  // wildcard pair
		{"web", "ep_cmd", "send"},  // subject→channel
		{"ep_cmd", "ctrl", "recv"}, // channel→subject
	} {
		id := log.Edges().Intern(d[0], d[1], d[2])
		if n := testing.AllocsPerRun(200, func() { m.Observe(id) }); n != 0 {
			t.Errorf("Observe(%q, %q, %q) allocates %.1f/op, want 0", d[0], d[1], d[2], n)
		}
		if n := testing.AllocsPerRun(200, func() { log.Record(id) }); n != 0 {
			t.Errorf("Record(%q, %q, %q) allocates %.1f/op, want 0", d[0], d[1], d[2], n)
		}
	}
	if st := m.Stats(); st.PolicyDrifts != 0 || st.OriginDrifts != 0 {
		t.Fatalf("in-graph traffic drifted: %+v", st)
	}
}

func TestObservePolicyDrift(t *testing.T) {
	events := obs.NewEventLog(nil, 0)
	m := New(NewIndex(testGraph(), IndexOptions{Origins: testOrigins()}), Options{Events: events})
	log := attach(m)
	deliver(log, "web", "heater", "mt2")  // never certified
	deliver(log, "ctrl", "heater", "mt3") // certified pair, uncertified type

	st := m.Stats()
	if st.PolicyDrifts != 2 {
		t.Fatalf("PolicyDrifts = %d, want 2", st.PolicyDrifts)
	}
	evs := events.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	e := evs[0]
	if e.Kind != obs.EventPolicyDrift || e.Mechanism != obs.MechPolicyMonitor {
		t.Fatalf("event = %+v", e)
	}
	if e.Src != "web" || e.Dst != "heater" || e.Detail != "mt2" {
		t.Fatalf("event attribution = %+v", e)
	}
	if e.Denied {
		t.Fatalf("the monitor observes, it does not enforce: %+v", e)
	}
}

func TestObserveNameNormalisation(t *testing.T) {
	// seL4 kernels record thread names ("ctrl.t0") and kernel endpoint names
	// ("cmd.iface"); the graph speaks components and spec objects. Both maps
	// must apply before lookup or every delivery would read as drift.
	m := New(NewIndex(testGraph(), IndexOptions{
		SubjectOf:    func(s string) string { base, _, _ := strings.Cut(s, "."); return base },
		ChannelNames: map[string]string{"cmd.iface": "ep_cmd"},
		Origins:      testOrigins(),
	}), Options{})
	log := attach(m)
	deliver(log, "web.t0", "cmd.iface", "send")
	deliver(log, "cmd.iface", "ctrl.t1", "recv")
	if st := m.Stats(); st.PolicyDrifts != 0 || st.Observed != 2 {
		t.Fatalf("normalised deliveries drifted: %+v", st)
	}
	// A channel name outside the map passes through unchanged — and misses.
	deliver(log, "web.t0", "other.iface", "send")
	if st := m.Stats(); st.PolicyDrifts != 1 {
		t.Fatalf("unmapped channel should miss: %+v", st)
	}
}

func TestDemoteTurnsCertifiedEdgesIntoOriginDrift(t *testing.T) {
	events := obs.NewEventLog(nil, 0)
	m := New(NewIndex(testGraph(), IndexOptions{Origins: testOrigins()}), Options{Events: events})
	log := attach(m)

	deliver(log, "web", "ep_cmd", "send")
	if st := m.Stats(); st.OriginDrifts != 0 {
		t.Fatalf("pre-demotion traffic drifted: %+v", st)
	}

	if !m.Demote("web", OriginUntrusted) {
		t.Fatal("Demote(web, untrusted) refused")
	}
	if o, ok := m.CurrentOrigin("web"); !ok || o != OriginUntrusted {
		t.Fatalf("CurrentOrigin(web) = %v, %v", o, ok)
	}

	// The demoted subject's own certified edge now drifts...
	deliver(log, "web", "ep_cmd", "send")
	// ...while edges governed by other subjects stay clean.
	deliver(log, "ep_cmd", "ctrl", "recv")
	deliver(log, "ctrl", "heater", "mt1")

	st := m.Stats()
	if st.OriginDrifts != 1 || st.PolicyDrifts != 0 || st.Demotions != 1 {
		t.Fatalf("stats = %+v, want exactly one origin drift", st)
	}

	var demoted, drift *obs.SecurityEvent
	for i := range events.Events() {
		e := events.Events()[i]
		switch e.Kind {
		case obs.EventOriginDemoted:
			demoted = &e
		case obs.EventOriginDrift:
			drift = &e
		}
	}
	if demoted == nil || demoted.Src != "web" || !strings.Contains(demoted.Detail, "web -> untrusted") {
		t.Fatalf("demotion event = %+v", demoted)
	}
	if drift == nil || drift.Src != "web" || drift.Dst != "ep_cmd" {
		t.Fatalf("origin-drift event = %+v", drift)
	}
	if !strings.Contains(drift.Detail, "requires origin web") || !strings.Contains(drift.Detail, "web is untrusted") {
		t.Fatalf("origin-drift detail = %q", drift.Detail)
	}
}

func TestDemoteIsMonotone(t *testing.T) {
	m := New(NewIndex(testGraph(), IndexOptions{Origins: testOrigins()}), Options{})
	if m.Demote("ctrl", OriginBoot) {
		t.Fatal("raising operator -> boot must be refused")
	}
	if m.Demote("ctrl", OriginOperator) {
		t.Fatal("demoting to the current label is a no-op")
	}
	if !m.Demote("ctrl", OriginWeb) {
		t.Fatal("operator -> web is a genuine demotion")
	}
	if m.Demote("ctrl", OriginOperator) {
		t.Fatal("re-raising after demotion must be refused")
	}
	if m.Demote("nobody", OriginUntrusted) {
		t.Fatal("unknown subject demoted")
	}
	if _, ok := m.CurrentOrigin("nobody"); ok {
		t.Fatal("unknown subject has an origin")
	}
	if st := m.Stats(); st.Demotions != 1 {
		t.Fatalf("Demotions = %d, want 1", st.Demotions)
	}
}

func TestEdgeLive(t *testing.T) {
	m := New(NewIndex(testGraph(), IndexOptions{Origins: testOrigins()}), Options{})
	if !m.Edge("ctrl", "heater", "mt1").Live() || !m.Edge("ctrl", "sensor", "mt42").Live() {
		t.Fatal("certified deliveries are not live")
	}
	if m.Edge("web", "heater", "mt1").Live() {
		t.Fatal("uncertified delivery is live")
	}
	if (EdgeRef{}).Live() {
		t.Fatal("zero EdgeRef is live")
	}
	// A handle resolved before a demotion reads the live label after it.
	webSend := m.Edge("web", "ep_cmd", "send")
	if !webSend.Live() {
		t.Fatal("web's certified edge is not live before demotion")
	}
	m.Demote("web", OriginUntrusted)
	if webSend.Live() || m.Edge("web", "ep_cmd", "send").Live() {
		t.Fatal("demoted subject's edge is live")
	}
	if !m.Edge("ep_cmd", "ctrl", "recv").Live() {
		t.Fatal("receiver-governed edge should be unaffected by web's demotion")
	}
	// Edge and Live never emit or count: they are the enforcement-side
	// predicate.
	if st := m.Stats(); st.Observed != 0 || st.PolicyDrifts != 0 {
		t.Fatalf("Edge/Live mutated stats: %+v", st)
	}
}

func TestUnlabelledSubjectsDefaultToBoot(t *testing.T) {
	m := New(NewIndex(testGraph(), IndexOptions{}), Options{}) // no origin map at all
	for _, s := range []string{"ctrl", "heater", "sensor", "web"} {
		if o, ok := m.CurrentOrigin(s); !ok || o != OriginBoot {
			t.Fatalf("CurrentOrigin(%s) = %v, %v, want boot", s, o, ok)
		}
	}
}

func TestNilEventLogStillCounts(t *testing.T) {
	m := New(NewIndex(testGraph(), IndexOptions{Origins: testOrigins()}), Options{})
	log := attach(m)
	deliver(log, "web", "heater", "mt1")
	m.Demote("web", OriginUntrusted)
	deliver(log, "web", "ep_cmd", "send")
	st := m.Stats()
	if st.Observed != 2 || st.PolicyDrifts != 1 || st.OriginDrifts != 1 || st.Demotions != 1 {
		t.Fatalf("stats with nil event log = %+v", st)
	}
}

func TestNilMonitorStats(t *testing.T) {
	var m *Monitor
	if st := m.Stats(); st != (Stats{}) {
		t.Fatalf("nil monitor stats = %+v", st)
	}
}

func TestOriginString(t *testing.T) {
	for o, want := range map[Origin]string{
		OriginUntrusted: "untrusted",
		OriginWeb:       "web",
		OriginOperator:  "operator",
		OriginBoot:      "boot",
		Origin(9):       "Origin(9)",
	} {
		if got := o.String(); got != want {
			t.Errorf("Origin(%d).String() = %q, want %q", uint8(o), got, want)
		}
	}
}

func TestCachedPolicyDriftKeepsNormalisedAttribution(t *testing.T) {
	// The per-edge cache must reproduce the drift event the string lookup
	// produced, on the first delivery and on every cached one after it:
	// graph-namespace Src/Dst, the kernel's label in Detail.
	events := obs.NewEventLog(nil, 0)
	m := New(NewIndex(testGraph(), IndexOptions{
		SubjectOf:    func(s string) string { base, _, _ := strings.Cut(s, "."); return base },
		ChannelNames: map[string]string{"cmd.iface": "ep_cmd"},
		Origins:      testOrigins(),
	}), Options{Events: events})
	log := attach(m)
	deliver(log, "web.t0", "heater.t0", "mt2")
	deliver(log, "web.t0", "heater.t0", "mt2")
	evs := events.Events()
	if len(evs) != 2 || m.Stats().PolicyDrifts != 2 {
		t.Fatalf("got %d events, stats %+v; want 2 drifts", len(evs), m.Stats())
	}
	for _, e := range evs {
		if e.Kind != obs.EventPolicyDrift || e.Src != "web" || e.Dst != "heater" || e.Detail != "mt2" {
			t.Fatalf("drift event = %+v", e)
		}
	}
}

func TestDemoteAfterEdgeCachedStillDrifts(t *testing.T) {
	// The cache holds names and the certified edge, never a verdict: an
	// edge observed clean many times must drift once its governing subject
	// is demoted.
	m := New(NewIndex(testGraph(), IndexOptions{Origins: testOrigins()}), Options{})
	log := attach(m)
	for i := 0; i < 3; i++ {
		deliver(log, "ep_cmd", "ctrl", "recv") // governed by ctrl
		deliver(log, "ctrl", "heater", "mt1")
	}
	if st := m.Stats(); st.OriginDrifts != 0 || st.PolicyDrifts != 0 {
		t.Fatalf("pre-demotion traffic drifted: %+v", st)
	}
	m.Demote("ctrl", OriginWeb)
	deliver(log, "ep_cmd", "ctrl", "recv")
	deliver(log, "ctrl", "heater", "mt1")
	if st := m.Stats(); st.OriginDrifts != 2 || st.PolicyDrifts != 0 {
		t.Fatalf("stats = %+v, want both cached edges to drift", st)
	}
}

func TestAttachResolvesAgainstTheNewTable(t *testing.T) {
	// Ids are per table: after Attach to another board's log, id 0 names a
	// different triple and must not hit the first board's cache.
	m := New(NewIndex(testGraph(), IndexOptions{Origins: testOrigins()}), Options{})
	deliver(attach(m), "ctrl", "heater", "mt1") // id 0: certified
	deliver(attach(m), "web", "heater", "mt1")  // id 0 again: not certified
	if st := m.Stats(); st.PolicyDrifts != 1 || st.Observed != 2 {
		t.Fatalf("stats = %+v, want the second board's id 0 to drift", st)
	}
}

func TestBoardsShareIndexReadOnly(t *testing.T) {
	// Two boards booted from one index: a demotion on one is that board's
	// state alone. The other keeps its labels, its clean Observe verdicts
	// and its live EdgeRefs.
	idx := NewIndex(testGraph(), IndexOptions{Origins: testOrigins()})
	a, b := New(idx, Options{}), New(idx, Options{})
	logA, logB := attach(a), attach(b)
	refA, refB := a.Edge("web", "ep_cmd", "send"), b.Edge("web", "ep_cmd", "send")
	deliver(logA, "web", "ep_cmd", "send")
	deliver(logB, "web", "ep_cmd", "send")

	if !a.Demote("web", OriginUntrusted) {
		t.Fatal("Demote(web) refused")
	}
	deliver(logA, "web", "ep_cmd", "send")
	deliver(logB, "web", "ep_cmd", "send")

	if o, _ := b.CurrentOrigin("web"); o != OriginWeb {
		t.Fatalf("board b's web origin = %v after board a's demotion, want web", o)
	}
	if refA.Live() || !refB.Live() || !b.Edge("web", "ep_cmd", "send").Live() {
		t.Fatalf("Live: a=%v b=%v, want only a's edge dead", refA.Live(), refB.Live())
	}
	if st := a.Stats(); st.OriginDrifts != 1 || st.Demotions != 1 {
		t.Fatalf("board a stats = %+v, want one drift, one demotion", st)
	}
	if st := b.Stats(); st != (Stats{Observed: 2}) {
		t.Fatalf("board b stats = %+v, want two clean observations", st)
	}
}
