package tenantapi

import (
	"math"
	"strings"
	"testing"
	"time"

	"mkbas/internal/obs"
	"mkbas/internal/polcheck/monitor"
)

// testClock is a manually advanced virtual clock.
type testClock struct{ ns int64 }

func (c *testClock) now() obs.Time { return obs.Time(c.ns) }
func (c *testClock) step(d time.Duration) {
	c.ns += int64(d)
}

// newTestGateway builds a small tier: 4 rooms, 8 occupants, 1 manager,
// 1 vendor, a generous admission budget, and a 5 req/s bucket.
func newTestGateway(t *testing.T, clk *testClock) (*Gateway, *Directory, *obs.EventLog) {
	t.Helper()
	dir := NewDirectory(DirectoryConfig{Seed: 42, Rooms: 4, Occupants: 8, Managers: 1, Vendors: 1})
	events := obs.NewEventLog(clk.now, 0)
	gw := NewGateway(dir, NewSimBackend(4, clk.now), GatewayConfig{
		Now:          clk.now,
		RatePerSec:   5,
		Burst:        10,
		AdmitPerTick: 1000,
		Registry:     obs.NewRegistry(),
		Events:       events,
	})
	return gw, dir, events
}

func handle(gw *Gateway, req Request) (Outcome, *Response) {
	var resp Response
	out := gw.Handle(&req, &resp)
	return out, &resp
}

func TestTokenDerivationDeterministic(t *testing.T) {
	cfg := DirectoryConfig{Seed: 7, Rooms: 4, Occupants: 4, Managers: 1, Vendors: 1}
	a, b := NewDirectory(cfg), NewDirectory(cfg)
	for i := 0; i < a.Len(); i++ {
		if a.At(i).Token != b.At(i).Token {
			t.Fatalf("principal %d: tokens differ across identically seeded directories", i)
		}
		if !strings.HasPrefix(a.At(i).Token, "tok-") || len(a.At(i).Token) != 20 {
			t.Fatalf("principal %d: malformed token %q", i, a.At(i).Token)
		}
	}
	cfg.Seed = 8
	c := NewDirectory(cfg)
	if c.At(0).Token == a.At(0).Token {
		t.Fatal("different seeds minted the same token")
	}
	// Tokens must be unique within a directory.
	seen := map[string]bool{}
	for i := 0; i < a.Len(); i++ {
		if seen[a.At(i).Token] {
			t.Fatalf("duplicate token at %d", i)
		}
		seen[a.At(i).Token] = true
	}
}

func TestRoleMatrix(t *testing.T) {
	clk := &testClock{}
	gw, dir, _ := newTestGateway(t, clk)
	occ := dir.Find("occupant-0001")
	mgr := dir.Find("manager-0000")
	ven := dir.Find("vendor-0000")

	cases := []struct {
		name string
		req  Request
		want Outcome
	}{
		{"occupant reads own room", Request{Token: occ.Token, Route: RouteStatus, Room: occ.Room}, OutcomeOK},
		{"occupant reads other room", Request{Token: occ.Token, Route: RouteStatus, Room: (occ.Room + 1) % 4}, OutcomeForbidden},
		{"occupant writes setpoint", Request{Token: occ.Token, Route: RouteSetpoint, Room: occ.Room, Value: 22}, OutcomeForbidden},
		{"occupant reads diagnostics", Request{Token: occ.Token, Route: RouteDiagnostics}, OutcomeForbidden},
		{"occupant whoami", Request{Token: occ.Token, Route: RouteWhoAmI}, OutcomeOK},
		{"manager reads any room", Request{Token: mgr.Token, Route: RouteStatus, Room: 3}, OutcomeOK},
		{"manager writes setpoint", Request{Token: mgr.Token, Route: RouteSetpoint, Room: 2, Value: 23.5}, OutcomeOK},
		{"manager out-of-band setpoint", Request{Token: mgr.Token, Route: RouteSetpoint, Room: 2, Value: 35}, OutcomeBadRequest},
		{"manager NaN setpoint", Request{Token: mgr.Token, Route: RouteSetpoint, Room: 2, Value: math.NaN()}, OutcomeBadRequest},
		{"manager diagnostics", Request{Token: mgr.Token, Route: RouteDiagnostics}, OutcomeOK},
		{"vendor diagnostics", Request{Token: ven.Token, Route: RouteDiagnostics}, OutcomeOK},
		{"vendor reads room", Request{Token: ven.Token, Route: RouteStatus, Room: 0}, OutcomeForbidden},
		{"vendor writes setpoint", Request{Token: ven.Token, Route: RouteSetpoint, Room: 0, Value: 20}, OutcomeForbidden},
		{"bad token", Request{Token: "tok-ffffffffffffffff", Route: RouteWhoAmI}, OutcomeUnauthorized},
		{"unknown room", Request{Token: mgr.Token, Route: RouteStatus, Room: 99}, OutcomeNotFound},
	}
	for _, tc := range cases {
		clk.step(time.Second) // keep buckets full
		if out, _ := handle(gw, tc.req); out != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, out, tc.want)
		}
	}
	// The accepted manager write reached the backend; the refused ones did not.
	if got := gw.backend.(*SimBackend).Setpoint(2); got != 23.5 {
		t.Errorf("room 2 setpoint = %.1f, want 23.5 from the one accepted write", got)
	}
}

func TestRevocationYields401(t *testing.T) {
	clk := &testClock{}
	gw, dir, events := newTestGateway(t, clk)
	occ := dir.Find("occupant-0000")
	if out, _ := handle(gw, Request{Token: occ.Token, Route: RouteWhoAmI}); out != OutcomeOK {
		t.Fatalf("pre-revocation request: %s", out)
	}
	if !dir.Revoke("occupant-0000") {
		t.Fatal("Revoke returned false for a live principal")
	}
	if dir.Revoke("occupant-0000") {
		t.Fatal("double revocation reported success")
	}
	clk.step(time.Second)
	if out, _ := handle(gw, Request{Token: occ.Token, Route: RouteWhoAmI}); out != OutcomeUnauthorized {
		t.Fatalf("replayed revoked token: got %s, want unauthorized", out)
	}
	found := false
	for _, tot := range events.Totals() {
		if tot.Kind == obs.EventAuthDenied && tot.Mechanism == obs.MechSession && tot.Denied {
			found = true
		}
	}
	if !found {
		t.Fatal("no session-auth denial event recorded")
	}
}

func TestRateLimitRefills(t *testing.T) {
	clk := &testClock{ns: int64(time.Hour)}
	gw, dir, _ := newTestGateway(t, clk)
	occ := dir.Find("occupant-0002")
	// Burst is 10: the 11th immediate request must shed.
	var out Outcome
	for i := 0; i < 11; i++ {
		out, _ = handle(gw, Request{Token: occ.Token, Route: RouteWhoAmI})
	}
	if out != OutcomeRateLimited {
		t.Fatalf("11th back-to-back request: got %s, want rate-limited", out)
	}
	// 5 req/s: one second refills five tokens.
	clk.step(time.Second)
	okCount := 0
	for i := 0; i < 6; i++ {
		if out, _ := handle(gw, Request{Token: occ.Token, Route: RouteWhoAmI}); out == OutcomeOK {
			okCount++
		}
	}
	if okCount != 5 {
		t.Fatalf("after 1s refill at 5 req/s: served %d, want 5", okCount)
	}
	// Other principals are unaffected.
	if out, _ := handle(gw, Request{Token: dir.Find("occupant-0003").Token, Route: RouteWhoAmI}); out != OutcomeOK {
		t.Fatalf("unrelated principal rate-limited: %s", out)
	}
}

func TestBackpressureShedsBeforeAuth(t *testing.T) {
	clk := &testClock{ns: int64(time.Hour)}
	dir := NewDirectory(DirectoryConfig{Seed: 1, Rooms: 2, Occupants: 2, Managers: 1, Vendors: 1})
	events := obs.NewEventLog(clk.now, 0)
	gw := NewGateway(dir, NewSimBackend(2, clk.now), GatewayConfig{
		Now: clk.now, RatePerSec: 1000, Burst: 2000, AdmitPerTick: 8, Events: events,
	})
	mgr := dir.Find("manager-0000")
	shed := 0
	for i := 0; i < 20; i++ {
		if out, _ := handle(gw, Request{Token: mgr.Token, Route: RouteWhoAmI}); out == OutcomeOverload {
			shed++
		}
	}
	if shed != 12 {
		t.Fatalf("20 requests into an 8-per-tick budget: shed %d, want 12", shed)
	}
	// The next tick re-admits.
	clk.step(10 * time.Millisecond)
	if out, _ := handle(gw, Request{Token: mgr.Token, Route: RouteWhoAmI}); out != OutcomeOK {
		t.Fatalf("after tick rollover: %s, want ok", out)
	}
	found := false
	for _, tot := range events.Totals() {
		if tot.Kind == obs.EventOverload && tot.Mechanism == obs.MechBackpressure {
			found = true
		}
	}
	if !found {
		t.Fatal("no backpressure overload event recorded")
	}
}

// TestDemotionShrinksReachableSet pins the origin-demotion contract:
// demoting a compromised tenant origin turns its certified edges off, so
// the role's reachable set (the routes the monitor admits) shrinks to
// nothing while other roles keep their certified edges. The gateway resolves its edge
// handles once, at construction, so this also pins that they read the live
// origin label: after Demote, every route the role held is refused through
// Handle and booked to the policy monitor.
func TestDemotionShrinksReachableSet(t *testing.T) {
	clk := &testClock{ns: int64(time.Hour)}
	gw, dir, events := newTestGateway(t, clk)
	occ := dir.Find("occupant-0004")
	mon := gw.Monitor()
	monitorDenials := func() int64 {
		for _, tot := range events.Totals() {
			if tot.Kind == obs.EventAuthzDenied && tot.Mechanism == obs.MechPolicyMonitor && tot.Denied {
				return tot.Count
			}
		}
		return 0
	}

	// Certified pre-state: the occupant edge admits room-status, and the
	// role holds more than one route.
	if !mon.Edge(SubjectOccupant, SubjectGateway, RouteStatus.Label()).Live() {
		t.Fatal("certified occupant edge missing before demotion")
	}
	var held []Route
	for rt := Route(0); rt < NumRoutes; rt++ {
		if gw.allowed[RoleOccupant][rt] {
			held = append(held, rt)
		}
	}
	if len(held) < 2 {
		t.Fatalf("occupant holds routes %v, want at least two", held)
	}
	for _, rt := range held {
		clk.step(time.Second)
		if out, _ := handle(gw, Request{Token: occ.Token, Route: rt, Room: occ.Room}); out != OutcomeOK {
			t.Fatalf("occupant %s refused before demotion: %v", rt.Label(), out)
		}
	}

	if !mon.Demote(SubjectOccupant, monitor.OriginUntrusted) {
		t.Fatal("Demote reported no-op")
	}
	// Every occupant route is now off: the reachable set shrank to zero.
	for rt := Route(0); rt < NumRoutes; rt++ {
		if mon.Edge(SubjectOccupant, SubjectGateway, rt.Label()).Live() {
			t.Fatalf("demoted occupant still reaches %s", rt.Label())
		}
	}
	// Through the gateway's pre-resolved handles too: each held route is
	// refused, and each refusal is the policy monitor's, not static rbac's.
	for _, rt := range held {
		clk.step(time.Second)
		before := monitorDenials()
		if out, _ := handle(gw, Request{Token: occ.Token, Route: rt, Room: occ.Room}); out != OutcomeForbidden {
			t.Fatalf("demoted occupant %s: outcome %v, want forbidden", rt.Label(), out)
		}
		if got := monitorDenials() - before; got != 1 {
			t.Fatalf("demoted occupant %s: %d policy-monitor denials booked, want 1", rt.Label(), got)
		}
	}
	// The manager's edges are untouched.
	if !mon.Edge(SubjectManager, SubjectGateway, RouteSetpoint.Label()).Live() {
		t.Fatal("manager edge lost after occupant demotion")
	}
	clk.step(time.Second)
	if out, _ := handle(gw, Request{Token: dir.Find("manager-0000").Token, Route: RouteStatus, Room: 0}); out != OutcomeOK {
		t.Fatal("manager refused after occupant demotion")
	}
}

func TestAccessGraphShape(t *testing.T) {
	g := AccessGraph()
	// Only the gateway reaches the head-end.
	for _, role := range []string{SubjectOccupant, SubjectManager, SubjectVendor} {
		for _, tgt := range g.SendTargets(role) {
			if tgt.Name == SubjectHeadEnd {
				t.Fatalf("%s holds a direct edge to the head-end", role)
			}
		}
	}
	gwTargets := g.SendTargets(SubjectGateway)
	if len(gwTargets) != 1 || gwTargets[0].Name != SubjectHeadEnd {
		t.Fatalf("gateway targets = %v, want exactly the head-end", gwTargets)
	}
}

func TestGatewayHandleBodiesAndStatuses(t *testing.T) {
	// The JSON bodies and outcomes a client of the tier sees: a status read
	// and a setpoint write render their rooms' values, and refusals are
	// forbidden (403) and unauthorized (401).
	clk := &testClock{ns: int64(time.Hour)}
	gw, dir, _ := newTestGateway(t, clk)
	mgr := dir.Find("manager-0000")
	occ := dir.Find("occupant-0000")
	cases := []struct {
		name string
		req  Request
		want Outcome
		body string
	}{
		{"manager status read", Request{Token: mgr.Token, Route: RouteStatus, Room: 1}, OutcomeOK, `"temp_c":`},
		{"manager setpoint write", Request{Token: mgr.Token, Route: RouteSetpoint, Room: 1, Value: 24.5}, OutcomeOK, `"setpoint":24.5`},
		{"occupant setpoint write", Request{Token: occ.Token, Route: RouteSetpoint, Room: 1, Value: 24.5}, OutcomeForbidden, ""},
		{"tokenless whoami", Request{Route: RouteWhoAmI}, OutcomeUnauthorized, ""},
		{"manager whoami", Request{Token: mgr.Token, Route: RouteWhoAmI}, OutcomeOK, ""},
	}
	for _, tc := range cases {
		clk.step(time.Second)
		out, resp := handle(gw, tc.req)
		if out != tc.want || !strings.Contains(string(resp.Body), tc.body) {
			t.Errorf("%s: %v %q, want %v with %q", tc.name, out, resp.Body, tc.want, tc.body)
		}
	}
}

func TestSplitMix64Stream(t *testing.T) {
	// The reference splitmix64 sequence from seed 0: every tenant traffic
	// mix depends on these exact draws.
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var s SplitMix64
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("draw %d = %#x, want %#x", i, got, w)
		}
	}
	if got := splitmix64(0); got != want[0] {
		t.Fatalf("splitmix64(0) = %#x, want the stream's first draw %#x", got, want[0])
	}
}
