package building

import (
	"mkbas/internal/bas"
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

// tenantTier is the building's attached API tier plus its private obs
// surfaces (the tier is building-level equipment, not any one board's).
type tenantTier struct {
	*bas.TenantTier
	reg    *obs.Registry
	events *obs.EventLog
	rng    tenantapi.SplitMix64
	// resp is the driver's response, reused across batches so its body
	// keeps its grown buffer.
	resp tenantapi.Response
}

// attachTenant wires the tier during New (Config.TenantAPI).
func (b *Building) attachTenant() {
	reg := obs.NewRegistry()
	now := func() obs.Time { return obs.Time(b.elapsed) }
	events := obs.NewEventLog(now, 256)
	tbs := make([]*bas.Testbed, len(b.Rooms))
	for i, r := range b.Rooms {
		tbs[i] = r.Testbed
	}
	b.tenant = &tenantTier{
		TenantTier: bas.AttachTenantAPI(tbs, tenantapi.DirectoryConfig{Seed: tenantSeed}, tenantapi.GatewayConfig{
			Now:      now,
			Registry: reg,
			Events:   events,
			Seed:     tenantSeed,
		}),
		reg: reg, events: events,
		rng: tenantapi.SplitMix64{State: tenantSeed},
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
		Principals:    t.Gateway.Directory().Len(),
		Served:        t.Gateway.Served(),
		Outcomes:      t.Gateway.Outcomes(),
		BuildingWrite: t.Backend.Writes(),
	}
	for _, n := range rep.Outcomes {
		rep.Requests += n
	}
	return rep, t.reg.Counters(), t.reg.Histograms(), t.events.Totals(), t.events.Mechanisms()
}
