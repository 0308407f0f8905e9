// Package tenantapi is the occupant-scale, tenant-facing API tier in front
// of the head-end: deterministic token sessions, a three-role authorisation
// model certified as a polcheck access graph, per-principal token-bucket
// rate limiting, and connection backpressure — all in virtual time, so a
// million-request campaign is a pure function of (config, seed).
//
// The paper's untrusted component is one web interface; a production BAS
// fronts thousands of occupants, facility managers, and vendor technicians
// behind authenticated APIs (sc-bos guards its supervisory APIs with
// OAuth2/OIDC + role-based access). This package grows that surface while
// keeping the repo's two core disciplines: the request hot path allocates
// nothing (gated by TestAPIHotPathZeroAlloc), and every denial is a typed
// security event naming the mediating layer — session-auth, rbac,
// rate-limit, backpressure, or policy-monitor — so API attacks slot into
// the same verdict machinery as kernel-level ones.
package tenantapi

import (
	"strconv"
)

// Role is the tenant tier's three-role authorisation model.
type Role uint8

// The roles, in directory order.
const (
	// RoleOccupant may read the status of their own room only.
	RoleOccupant Role = iota
	// RoleManager (facility manager) may read every room, write setpoints,
	// and read diagnostics.
	RoleManager
	// RoleVendor (service technician) may read diagnostics only — no room
	// state, no writes.
	RoleVendor
	numRoles
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleOccupant:
		return "occupant"
	case RoleManager:
		return "manager"
	case RoleVendor:
		return "vendor"
	default:
		return "role-" + strconv.Itoa(int(r))
	}
}

// Subject returns the role's subject name in the certified tenant access
// graph ("tenant:occupant" etc).
func (r Role) Subject() string {
	switch r {
	case RoleOccupant:
		return SubjectOccupant
	case RoleManager:
		return SubjectManager
	case RoleVendor:
		return SubjectVendor
	default:
		return "tenant:" + r.String()
	}
}

// Graph subject names (see AccessGraph).
const (
	// SubjectOccupant governs every occupant session's edges.
	SubjectOccupant = "tenant:occupant"
	// SubjectManager governs facility-manager sessions.
	SubjectManager = "tenant:manager"
	// SubjectVendor governs vendor-technician sessions.
	SubjectVendor = "tenant:vendor"
	// SubjectGateway is the API gateway itself — the only subject with an
	// edge to the head-end.
	SubjectGateway = "tenantApiGw"
	// SubjectHeadEnd is the supervisory backend the gateway fronts.
	SubjectHeadEnd = "headEnd"
)

// Route is one of the tier's fixed API routes.
type Route uint8

// The routes.
const (
	// RouteStatus is GET /api/rooms/<n>/status — room temperature,
	// setpoint, and actuator state.
	RouteStatus Route = iota
	// RouteSetpoint is POST /api/rooms/<n>/setpoint — schedule a setpoint
	// write (manager only).
	RouteSetpoint
	// RouteDiagnostics is GET /api/diagnostics — tier-level counters for
	// vendor technicians and managers.
	RouteDiagnostics
	// RouteWhoAmI is GET /api/whoami — echo the authenticated principal.
	RouteWhoAmI
	// NumRoutes bounds per-route arrays.
	NumRoutes
)

// routeLabels are the access-graph edge labels, indexed by Route. They are
// the vocabulary shared by the gateway, the certified graph, and the
// security-event stream.
var routeLabels = [NumRoutes]string{
	RouteStatus:      "room-status",
	RouteSetpoint:    "setpoint-write",
	RouteDiagnostics: "diagnostics",
	RouteWhoAmI:      "whoami",
}

// Label returns the route's certified edge label.
func (r Route) Label() string {
	if int(r) < len(routeLabels) {
		return routeLabels[r]
	}
	return "route-" + strconv.Itoa(int(r))
}

// Outcome is the typed result of one API request.
type Outcome uint8

// The outcomes, mapped onto HTTP status codes by Status.
const (
	// OutcomeOK is a served request (200).
	OutcomeOK Outcome = iota
	// OutcomeBadRequest is a syntactically valid request with an
	// unacceptable value, e.g. a setpoint outside the controller's
	// [15,30] °C band (400). Validation, not mediation: no security event.
	OutcomeBadRequest
	// OutcomeUnauthorized is a session-layer refusal: unknown or revoked
	// token (401, mechanism session-auth).
	OutcomeUnauthorized
	// OutcomeForbidden is an authorisation refusal: the role holds no
	// certified edge for the route, an occupant read outside their room, or
	// a demoted origin (403, mechanism rbac or policy-monitor).
	OutcomeForbidden
	// OutcomeNotFound is a reference to a room the building doesn't have
	// (404).
	OutcomeNotFound
	// OutcomeRateLimited is a per-principal token-bucket refusal (429,
	// mechanism rate-limit).
	OutcomeRateLimited
	// OutcomeOverload is an admission-control shed before any per-principal
	// work (503, mechanism backpressure).
	OutcomeOverload
	// NumOutcomes bounds per-outcome arrays.
	NumOutcomes
)

var outcomeNames = [NumOutcomes]string{
	OutcomeOK:           "ok",
	OutcomeBadRequest:   "bad-request",
	OutcomeUnauthorized: "unauthorized",
	OutcomeForbidden:    "forbidden",
	OutcomeNotFound:     "not-found",
	OutcomeRateLimited:  "rate-limited",
	OutcomeOverload:     "overload",
}

// String names the outcome.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "outcome-" + strconv.Itoa(int(o))
}

// Principal is one directory entry: a named identity with a role, a home
// room (occupants only), and a deterministically derived bearer token.
type Principal struct {
	// Name is the stable identity ("occupant-0017", "manager-2", ...).
	Name string
	// Role is the principal's authorisation role.
	Role Role
	// Room is the occupant's own room index; -1 for managers and vendors.
	Room int
	// Token is the bearer token, derived from (directory seed, name) — no
	// wall-clock, no randomness, so every run mints the same credentials.
	Token string
}

// SplitMix64 is the repo's standard deterministic random stream: every
// tenant traffic mix (the load generator's shards, the building tier, the
// single-board driver) draws from one. The zero value is a valid stream;
// State seeds it.
type SplitMix64 struct{ State uint64 }

// Next advances the stream and returns its next draw.
func (s *SplitMix64) Next() uint64 {
	s.State += 0x9e3779b97f4a7c15
	z := s.State
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitmix64 mixes x into 64 well-spread bits: the first draw of a stream
// seeded with x.
func splitmix64(x uint64) uint64 {
	s := SplitMix64{State: x}
	return s.Next()
}

// fnv64 hashes a string with FNV-1a.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

const hexdigits = "0123456789abcdef"

// deriveToken mints the deterministic bearer token for (seed, name).
func deriveToken(seed uint64, name string) string {
	h := splitmix64(seed ^ fnv64(name))
	var buf [20]byte
	copy(buf[:], "tok-")
	for i := 0; i < 16; i++ {
		buf[4+i] = hexdigits[(h>>(60-4*i))&0xf]
	}
	return string(buf[:])
}

// DirectoryConfig sizes a tenant directory.
type DirectoryConfig struct {
	// Seed drives token derivation. Two directories with the same config
	// mint identical credentials.
	Seed uint64
	// Rooms is the building's room count; occupants are assigned home rooms
	// round-robin.
	Rooms int
	// Occupants, Managers, Vendors are the per-role principal counts.
	Occupants int
	Managers  int
	Vendors   int
}

func (c DirectoryConfig) withDefaults() DirectoryConfig {
	if c.Rooms <= 0 {
		c.Rooms = 16
	}
	if c.Occupants <= 0 {
		c.Occupants = 4 * c.Rooms
	}
	if c.Managers <= 0 {
		c.Managers = 2
	}
	if c.Vendors <= 0 {
		c.Vendors = 2
	}
	return c
}

// Directory is the deterministic principal database: occupants first, then
// managers, then vendors, with an O(1) token index. Revocation is the
// session-layer response to a credential-theft verdict.
type Directory struct {
	principals []Principal
	byToken    map[string]int32
	revoked    []bool
}

// NewDirectory mints the principal set for cfg.
func NewDirectory(cfg DirectoryConfig) *Directory {
	cfg = cfg.withDefaults()
	n := cfg.Occupants + cfg.Managers + cfg.Vendors
	d := &Directory{
		principals: make([]Principal, 0, n),
		byToken:    make(map[string]int32, n),
		revoked:    make([]bool, n),
	}
	add := func(name string, role Role, room int) {
		p := Principal{Name: name, Role: role, Room: room, Token: deriveToken(cfg.Seed, name)}
		d.byToken[p.Token] = int32(len(d.principals))
		d.principals = append(d.principals, p)
	}
	for i := 0; i < cfg.Occupants; i++ {
		add("occupant-"+pad4(i), RoleOccupant, i%cfg.Rooms)
	}
	for i := 0; i < cfg.Managers; i++ {
		add("manager-"+pad4(i), RoleManager, -1)
	}
	for i := 0; i < cfg.Vendors; i++ {
		add("vendor-"+pad4(i), RoleVendor, -1)
	}
	return d
}

// pad4 renders i as a fixed-width 4-digit decimal, keeping names sortable.
func pad4(i int) string {
	var buf [4]byte
	for j := 3; j >= 0; j-- {
		buf[j] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[:])
}

// Len is the principal count.
func (d *Directory) Len() int { return len(d.principals) }

// At returns the principal at directory index i.
func (d *Directory) At(i int) *Principal { return &d.principals[i] }

// Find locates a principal by name; nil if absent. Linear — management
// plane only, never on the request path.
func (d *Directory) Find(name string) *Principal {
	for i := range d.principals {
		if d.principals[i].Name == name {
			return &d.principals[i]
		}
	}
	return nil
}

// Lookup resolves a bearer token to a directory index. ok is false for
// unknown or revoked tokens — the caller cannot distinguish the two, which
// is the point: a revoked credential looks exactly like a bad guess.
func (d *Directory) Lookup(token string) (int32, bool) {
	idx, ok := d.byToken[token]
	if !ok || d.revoked[idx] {
		return -1, false
	}
	return idx, true
}

// Revoke invalidates a principal's token by name, returning true if the
// principal existed and was live. This is the session layer's demotion:
// after a stolen-credential verdict, replay dies with 401 at the gateway.
func (d *Directory) Revoke(name string) bool {
	p := d.Find(name)
	if p == nil {
		return false
	}
	idx := d.byToken[p.Token]
	if d.revoked[idx] {
		return false
	}
	d.revoked[idx] = true
	return true
}
