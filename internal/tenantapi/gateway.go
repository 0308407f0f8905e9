package tenantapi

import (
	"strconv"
	"time"

	"mkbas/internal/decfmt"
	"mkbas/internal/obs"
	"mkbas/internal/polcheck/monitor"
)

// Setpoint band accepted by the tier, mirroring the controller's contract
// (bas.MinSetpoint/MaxSetpoint): out-of-band values die with 400 at the
// gateway instead of riding IPC to the controller just to be refused.
const (
	MinSetpoint = 15.0
	MaxSetpoint = 30.0
)

// Backend is what the gateway fronts: the head-end's view of the building.
// Implementations must be deterministic in virtual time and must not
// allocate on the read paths — response bodies are appended into the
// caller's reused buffer.
type Backend interface {
	// Rooms is the building's room count; the gateway validates room
	// indices against it before dispatching.
	Rooms() int
	// ReadRoom appends room status fields ("temp_c":..,"setpoint":..) to
	// resp.Body. The index is pre-validated.
	ReadRoom(room int, resp *Response)
	// WriteSetpoint schedules an in-band setpoint write for the room.
	WriteSetpoint(room int, value float64)
	// ReadDiagnostics appends backend diagnostic fields to resp.Body, each
	// preceded by a comma (may append nothing).
	ReadDiagnostics(resp *Response)
}

// Request is one parsed API request. The HTTP frontend (http.go) fills it
// from the wire; the load generator and attack harness fill it directly.
type Request struct {
	// Token is the bearer credential.
	Token string
	// Route is the parsed route.
	Route Route
	// Room is the target room for RouteStatus / RouteSetpoint.
	Room int
	// Value is the requested setpoint for RouteSetpoint.
	Value float64
}

// Response is the reused per-connection response buffer.
type Response struct {
	// Outcome is the typed result; each Outcome constant documents the HTTP
	// status it stands for.
	Outcome Outcome
	// Principal is the directory index of the authenticated caller, -1
	// before authentication succeeds.
	Principal int32
	// Body is the JSON body, appended in place and reused across requests.
	Body []byte
	// LatencyNs is the modelled virtual service latency of this request.
	LatencyNs int64
}

func (r *Response) reset() {
	r.Outcome = OutcomeOK
	r.Principal = -1
	r.Body = r.Body[:0]
	r.LatencyNs = 0
}

// GatewayConfig parameterises a Gateway.
type GatewayConfig struct {
	// Now is the virtual clock. Required.
	Now func() obs.Time
	// RatePerSec and Burst configure the per-principal token bucket
	// (defaults 20/s, burst 40).
	RatePerSec int64
	Burst      int64
	// AdmitPerTick is the admission budget per TickNs window — requests
	// beyond it shed with 503 before any per-principal work (default 256).
	AdmitPerTick int
	// TickNs is the admission window length (default 10ms of virtual time).
	TickNs int64
	// Registry books per-route request counters and latency histograms;
	// nil books nothing.
	Registry *obs.Registry
	// Events receives typed denial events naming the mediating layer; nil
	// discards them.
	Events *obs.EventLog
	// Monitor verifies role→gateway edges against the certified tenant
	// graph under the current origin assignment. nil builds a fresh monitor
	// over AccessGraph() wired to Events.
	Monitor *monitor.Monitor
	// Seed perturbs the deterministic latency jitter stream.
	Seed uint64
}

func (c GatewayConfig) withDefaults() GatewayConfig {
	if c.RatePerSec <= 0 {
		c.RatePerSec = 20
	}
	if c.Burst <= 0 {
		c.Burst = 2 * c.RatePerSec
	}
	if c.AdmitPerTick <= 0 {
		c.AdmitPerTick = 256
	}
	if c.TickNs <= 0 {
		c.TickNs = 10 * int64(time.Millisecond)
	}
	return c
}

// serviceNs is the modelled per-route virtual service time (successful
// requests); denials cost denyNs. Jitter from the seq hash adds up to ~1ms.
var serviceNs = [NumRoutes]int64{
	RouteStatus:      1_500_000,
	RouteSetpoint:    4_000_000,
	RouteDiagnostics: 6_000_000,
	RouteWhoAmI:      500_000,
}

const denyNs = 50_000

// Gateway is the tenant API tier: session auth, certified RBAC, rate
// limiting, and admission control in front of a Backend. Handle is the
// allocation-free hot path (gated by TestAPIHotPathZeroAlloc).
type Gateway struct {
	cfg     GatewayConfig
	dir     *Directory
	backend Backend
	limiter *Limiter
	mon     *monitor.Monitor
	events  *obs.EventLog

	// allowed is the static role×route matrix, derived from the certified
	// graph at construction so the two can never drift apart. edges holds
	// the monitor's handle on each allowed role→gateway route edge,
	// resolved once; its Live check reads the role's current origin label
	// per request.
	allowed [numRoles][NumRoutes]bool
	edges   [numRoles][NumRoutes]monitor.EdgeRef

	admitWindow int64
	admitted    int
	seq         uint64

	// Lifetime tallies for the diagnostics route.
	served   int64
	denied   [NumOutcomes]int64
	counters [NumRoutes][NumOutcomes]*obs.Counter
	latency  [NumRoutes]*obs.Histogram
}

// NewGateway wires a gateway over a directory and backend.
func NewGateway(dir *Directory, backend Backend, cfg GatewayConfig) *Gateway {
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:     cfg,
		dir:     dir,
		backend: backend,
		limiter: NewLimiter(dir.Len(), cfg.RatePerSec, cfg.Burst),
		mon:     cfg.Monitor,
		events:  cfg.Events,
	}
	if g.mon == nil {
		g.mon = NewMonitor(cfg.Events)
	}
	g.allowed = access().allowed
	for r := Role(0); r < numRoles; r++ {
		for rt := Route(0); rt < NumRoutes; rt++ {
			if g.allowed[r][rt] {
				g.edges[r][rt] = g.mon.Edge(r.Subject(), SubjectGateway, routeLabels[rt])
			}
		}
	}
	if cfg.Registry != nil {
		for rt := Route(0); rt < NumRoutes; rt++ {
			for o := Outcome(0); o < NumOutcomes; o++ {
				g.counters[rt][o] = cfg.Registry.Counter("api_requests_" + routeLabels[rt] + "_" + outcomeNames[o])
			}
			g.latency[rt] = cfg.Registry.Histogram("api_latency_"+routeLabels[rt], nil)
		}
	}
	return g
}

// Monitor exposes the gateway's policy monitor so harnesses can demote a
// compromised tenant origin (shrinking its reachable set) and read drift
// stats.
func (g *Gateway) Monitor() *monitor.Monitor { return g.mon }

// Directory exposes the session database for revocation.
func (g *Gateway) Directory() *Directory { return g.dir }

// Served reports the lifetime count of requests that reached the backend.
func (g *Gateway) Served() int64 { return g.served }

// Denied reports the lifetime denial count for one outcome.
func (g *Gateway) Denied(o Outcome) int64 { return g.denied[o] }

// Outcomes reports the lifetime request count of every outcome the
// gateway has booked, by outcome name: "ok" is Served, every other name
// its Denied count. Outcomes never booked are absent.
func (g *Gateway) Outcomes() map[string]int64 {
	m := make(map[string]int64)
	for o := Outcome(0); o < NumOutcomes; o++ {
		n := g.denied[o]
		if o == OutcomeOK {
			n = g.served
		}
		if n != 0 {
			m[o.String()] = n
		}
	}
	return m
}

// Drive sends n requests of the standard occupant/manager/vendor mix
// through the gateway: a principal drawn from the directory reads a room
// (its own, or a drawn one for a building-scoped principal), and one
// request in ten each is a manager-style setpoint write, a diagnostics
// read, a whoami or a stale-token probe. A room is drawn only when the
// backend has more than one, so a one-room board spends no draws on it.
// Every choice comes from rng; resp is the caller's reused response.
func (g *Gateway) Drive(rng *SplitMix64, n int, resp *Response) {
	rooms := uint64(g.backend.Rooms())
	room := func() int {
		if rooms > 1 {
			return int(rng.Next() % rooms)
		}
		return 0
	}
	for k := 0; k < n; k++ {
		p := g.dir.At(int(rng.Next() % uint64(g.dir.Len())))
		req := Request{Token: p.Token, Route: RouteStatus, Room: p.Room}
		if req.Room < 0 { // building-scoped managers and vendors
			req.Room = room()
		}
		switch rng.Next() % 10 {
		case 0:
			req.Route = RouteSetpoint
			req.Room = room()
			req.Value = 20 + float64(rng.Next()%60)/10
		case 1:
			req.Route = RouteDiagnostics
		case 2:
			req.Route = RouteWhoAmI
		case 3:
			req.Token = "tok-ffffffffffffffff" // stale credential noise
		}
		g.Handle(&req, resp)
	}
}

// Handle processes one request into resp, returning the typed outcome. The
// mediation order is the tier's defence-in-depth story: admission control
// (503) before session auth (401) before rate limiting (429) before
// role-based authorisation (403) before the backend ever runs.
func (g *Gateway) Handle(req *Request, resp *Response) Outcome {
	resp.reset()
	g.seq++
	now := int64(g.cfg.Now())

	// Layer 1: admission control. The budget is per virtual tick and
	// charged before identity is even established — floods shed here.
	w := now / g.cfg.TickNs
	if w != g.admitWindow {
		g.admitWindow = w
		g.admitted = 0
	}
	g.admitted++
	if g.admitted > g.cfg.AdmitPerTick {
		g.deny(obs.EventOverload, obs.MechBackpressure, "anonymous", "admission budget spent")
		return g.finish(req, resp, OutcomeOverload)
	}

	// Layer 2: session authentication. Revoked and unknown tokens are
	// indistinguishable by design.
	idx, ok := g.dir.Lookup(req.Token)
	if !ok {
		g.deny(obs.EventAuthDenied, obs.MechSession, "anonymous", "unknown or revoked token")
		return g.finish(req, resp, OutcomeUnauthorized)
	}
	p := g.dir.At(int(idx))
	resp.Principal = idx

	// Layer 3: per-principal rate limiting.
	if !g.limiter.Allow(idx, now) {
		g.deny(obs.EventRateLimited, obs.MechRateLimit, p.Name, "token bucket empty")
		return g.finish(req, resp, OutcomeRateLimited)
	}

	// Layer 4: role-based authorisation against the certified graph. The
	// static matrix names rbac as the mediator; a certified edge that fails
	// the live check means the role's origin was demoted — that refusal is
	// the policy monitor's.
	if req.Route >= NumRoutes {
		return g.finish(req, resp, OutcomeNotFound)
	}
	if !g.allowed[p.Role][req.Route] {
		g.deny(obs.EventAuthzDenied, obs.MechRBAC, p.Name, "role holds no edge for route")
		return g.finish(req, resp, OutcomeForbidden)
	}
	if !g.edges[p.Role][req.Route].Live() {
		g.deny(obs.EventAuthzDenied, obs.MechPolicyMonitor, p.Name, "origin demoted below certified edge")
		return g.finish(req, resp, OutcomeForbidden)
	}
	if p.Role == RoleOccupant && req.Route == RouteStatus && req.Room != p.Room {
		g.deny(obs.EventAuthzDenied, obs.MechRBAC, p.Name, "occupant read outside own room")
		return g.finish(req, resp, OutcomeForbidden)
	}

	// Layer 5: dispatch.
	switch req.Route {
	case RouteStatus:
		if req.Room < 0 || req.Room >= g.backend.Rooms() {
			return g.finish(req, resp, OutcomeNotFound)
		}
		resp.Body = append(resp.Body, `{"room":`...)
		resp.Body = strconv.AppendInt(resp.Body, int64(req.Room), 10)
		g.backend.ReadRoom(req.Room, resp)
		resp.Body = append(resp.Body, '}')
	case RouteSetpoint:
		if req.Room < 0 || req.Room >= g.backend.Rooms() {
			return g.finish(req, resp, OutcomeNotFound)
		}
		// "Not inside" rather than "outside", so NaN is refused too.
		if !(req.Value >= MinSetpoint && req.Value <= MaxSetpoint) {
			return g.finish(req, resp, OutcomeBadRequest)
		}
		g.backend.WriteSetpoint(req.Room, req.Value)
		resp.Body = append(resp.Body, `{"room":`...)
		resp.Body = strconv.AppendInt(resp.Body, int64(req.Room), 10)
		resp.Body = append(resp.Body, `,"setpoint":`...)
		resp.Body = decfmt.AppendFixed(resp.Body, req.Value, 1)
		resp.Body = append(resp.Body, '}')
	case RouteDiagnostics:
		resp.Body = append(resp.Body, `{"served":`...)
		resp.Body = strconv.AppendInt(resp.Body, g.served, 10)
		resp.Body = append(resp.Body, `,"unauthorized":`...)
		resp.Body = strconv.AppendInt(resp.Body, g.denied[OutcomeUnauthorized], 10)
		resp.Body = append(resp.Body, `,"forbidden":`...)
		resp.Body = strconv.AppendInt(resp.Body, g.denied[OutcomeForbidden], 10)
		resp.Body = append(resp.Body, `,"rate_limited":`...)
		resp.Body = strconv.AppendInt(resp.Body, g.denied[OutcomeRateLimited], 10)
		resp.Body = append(resp.Body, `,"overload":`...)
		resp.Body = strconv.AppendInt(resp.Body, g.denied[OutcomeOverload], 10)
		g.backend.ReadDiagnostics(resp)
		resp.Body = append(resp.Body, '}')
	case RouteWhoAmI:
		resp.Body = append(resp.Body, `{"name":"`...)
		resp.Body = append(resp.Body, p.Name...)
		resp.Body = append(resp.Body, `","role":"`...)
		resp.Body = append(resp.Body, p.Role.String()...)
		resp.Body = append(resp.Body, `","room":`...)
		resp.Body = strconv.AppendInt(resp.Body, int64(p.Room), 10)
		resp.Body = append(resp.Body, '}')
	}
	return g.finish(req, resp, OutcomeOK)
}

// deny emits the typed security event for a refusal. Details are static
// strings so the hot path stays allocation-free.
func (g *Gateway) deny(kind obs.EventKind, mech obs.Mechanism, src, detail string) {
	g.events.Emit(obs.SecurityEvent{
		Kind:      kind,
		Mechanism: mech,
		Denied:    true,
		Src:       src,
		Dst:       SubjectGateway,
		Detail:    detail,
	})
}

// finish books the outcome: tallies, the per-route×outcome counter, and the
// modelled latency observation.
func (g *Gateway) finish(req *Request, resp *Response, o Outcome) Outcome {
	resp.Outcome = o
	lat := int64(denyNs)
	if o == OutcomeOK {
		g.served++
		if req.Route < NumRoutes {
			lat = serviceNs[req.Route]
		}
	} else {
		g.denied[o]++
	}
	// Deterministic jitter: up to ~1ms derived from the request sequence.
	lat += int64(splitmix64(g.seq^g.cfg.Seed) & 0xfffff)
	resp.LatencyNs = lat
	rt := req.Route
	if rt >= NumRoutes {
		rt = RouteStatus
	}
	if c := g.counters[rt][o]; c != nil {
		c.Inc()
	}
	if h := g.latency[rt]; h != nil {
		h.Observe(time.Duration(lat))
	}
	return o
}
