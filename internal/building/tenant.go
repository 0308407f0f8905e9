package building

import (
	"strconv"

	"mkbas/internal/decfmt"
	"mkbas/internal/obs"
	"mkbas/internal/tenantapi"
)

// The building-scale tenant API tier: one gateway fronting the whole fleet,
// the occupant-facing counterpart of the head-end BMS. Requests arrive in
// deterministic per-round batches at the round barrier (every board engine
// parked, coordinator context), so an api=on building remains byte-identical
// at any worker count. Reads return room ground truth; authorized setpoint
// writes go through the target room's real web interface — the same HTTP
// endpoint an operator uses — so every write is still mediated by that
// room's platform.

// tenantSeed fixes the building tenant tier's credential and traffic
// stream; building experiments must replay bit-for-bit.
const tenantSeed = 0xB16AB1

// tenantPerRound is the per-round request batch the driver issues.
const tenantPerRound = 8

// fleetBackend implements tenantapi.Backend over every room in the building.
type fleetBackend struct {
	b      *Building
	writes int64
}

// Rooms is the building's room count.
func (k *fleetBackend) Rooms() int { return len(k.b.Rooms) }

// ReadRoom appends the target room's live plant state.
func (k *fleetBackend) ReadRoom(room int, resp *tenantapi.Response) {
	r := k.b.Rooms[room].Testbed.Room
	resp.Body = append(resp.Body, `,"temp_c":`...)
	resp.Body = decfmt.AppendFixed(resp.Body, r.Temperature(), 2)
	resp.Body = append(resp.Body, `,"heater_on":`...)
	resp.Body = strconv.AppendBool(resp.Body, r.HeaterOn())
}

// WriteSetpoint posts the gateway-validated setpoint through the target
// room's web interface. Harness-context only: it steps that room's machine.
func (k *fleetBackend) WriteSetpoint(room int, value float64) {
	tb := k.b.Rooms[room].Testbed
	var num [24]byte
	status, _, err := tb.HTTPPostSetpoint(string(decfmt.AppendFixed(num[:0], value, 2)))
	if err == nil && status == 200 {
		k.writes++
	}
}

// ReadDiagnostics appends the fleet-level write tally and round counter.
func (k *fleetBackend) ReadDiagnostics(resp *tenantapi.Response) {
	resp.Body = append(resp.Body, `,"building_writes":`...)
	resp.Body = strconv.AppendInt(resp.Body, k.writes, 10)
	resp.Body = append(resp.Body, `,"round":`...)
	resp.Body = strconv.AppendInt(resp.Body, int64(k.b.round), 10)
}

// tenantTier is the building's attached API tier plus its private obs
// surfaces (the tier is building-level equipment, not any one board's).
type tenantTier struct {
	gw       *tenantapi.Gateway
	dir      *tenantapi.Directory
	backend  *fleetBackend
	reg      *obs.Registry
	events   *obs.EventLog
	rng      tenantapi.SplitMix64
	requests int64
	outcomes map[string]int64
	// req and resp are the driver's request and response, reused across
	// batches so a response body keeps its grown buffer.
	req  tenantapi.Request
	resp tenantapi.Response
}

// attachTenant wires the tier during New (Config.TenantAPI).
func (b *Building) attachTenant() {
	reg := obs.NewRegistry()
	now := func() obs.Time { return obs.Time(b.elapsed) }
	events := obs.NewEventLog(now, 256)
	dir := tenantapi.NewDirectory(tenantapi.DirectoryConfig{Seed: tenantSeed, Rooms: len(b.Rooms)})
	backend := &fleetBackend{b: b}
	gw := tenantapi.NewGateway(dir, backend, tenantapi.GatewayConfig{
		Now:      now,
		Registry: reg,
		Events:   events,
		Seed:     tenantSeed,
	})
	b.tenant = &tenantTier{
		gw: gw, dir: dir, backend: backend, reg: reg, events: events,
		rng:      tenantapi.SplitMix64{State: tenantSeed},
		outcomes: make(map[string]int64),
	}
}

// driveTenant issues the round's occupant/manager/vendor batch. Runs on the
// coordinator at the round barrier.
func (b *Building) driveTenant() {
	t := b.tenant
	rooms := len(b.Rooms)
	req := &t.req
	for k := 0; k < tenantPerRound; k++ {
		p := t.dir.At(int(t.rng.Next() % uint64(t.dir.Len())))
		room := p.Room
		if room < 0 { // building-scoped managers and vendors
			room = int(t.rng.Next() % uint64(rooms))
		}
		*req = tenantapi.Request{Token: p.Token, Route: tenantapi.RouteStatus, Room: room}
		switch t.rng.Next() % 10 {
		case 0:
			req.Route = tenantapi.RouteSetpoint
			req.Room = int(t.rng.Next() % uint64(rooms))
			req.Value = 20 + float64(t.rng.Next()%60)/10
		case 1:
			req.Route = tenantapi.RouteDiagnostics
		case 2:
			req.Route = tenantapi.RouteWhoAmI
		case 3:
			req.Token = "tok-ffffffffffffffff" // stale credential noise
		}
		outc := t.gw.Handle(req, &t.resp)
		t.requests++
		t.outcomes[outc.String()]++
	}
}

// APIReport is the building report's tenant-tier block.
type APIReport struct {
	Principals    int              `json:"principals"`
	Requests      int64            `json:"requests"`
	Served        int64            `json:"served"`
	Outcomes      map[string]int64 `json:"outcomes"`
	BuildingWrite int64            `json:"building_writes"`
}

// apiReport snapshots the tier (nil when Config.TenantAPI is off) and
// returns the tier's obs surfaces for the building-wide merge.
func (b *Building) apiReport() (*APIReport, []obs.CounterSnap, []obs.HistogramSnap, []obs.EventTotal, []obs.Mechanism) {
	t := b.tenant
	if t == nil {
		return nil, nil, nil, nil, nil
	}
	rep := &APIReport{
		Principals:    t.dir.Len(),
		Requests:      t.requests,
		Served:        t.gw.Served(),
		Outcomes:      make(map[string]int64, len(t.outcomes)),
		BuildingWrite: t.backend.writes,
	}
	for k, v := range t.outcomes {
		rep.Outcomes[k] = v
	}
	return rep, t.reg.Counters(), t.reg.Histograms(), t.events.Totals(), t.events.Mechanisms()
}
