// Package loadgen is the tenant API tier's deterministic load generator: a
// million-request campaign against shard-local gateways, in virtual time,
// whose merged output is byte-identical at any worker count.
//
// The campaign runs on the attack fleet runner's shard pool
// (lab.ForEachShard) under the same contract: it splits into independent
// shards, each shard owns every piece of mutable state it touches (clock,
// PRNG, directory, backend, gateway, metrics, events), results land in
// shard-indexed storage, and the merge folds them in shard order with the
// obs merge helpers. Worker count is therefore pure
// wall-clock mechanics — it cannot reach the simulated world.
package loadgen

import (
	"encoding/json"
	"time"

	"mkbas/internal/lab"
	"mkbas/internal/obs"
	"mkbas/internal/perf"
	"mkbas/internal/tenantapi"
)

// Plan parameterises a campaign. The zero value (plus a seed) is the
// standard million-request run.
type Plan struct {
	// Seed drives every random choice in the campaign: principal selection,
	// route mix, setpoint values, and latency jitter.
	Seed uint64 `json:"seed"`
	// Requests is the campaign total across all shards (default 1,000,000).
	Requests int `json:"requests"`
	// Shards is the number of independent gateway instances the campaign
	// splits into (default 64). More shards than workers is normal: shards
	// are the determinism unit, workers the wall-clock unit.
	Shards int `json:"shards"`
	// Directory sizes each shard's principal set (defaults: 16 rooms, 64
	// occupants, 2 managers, 2 vendors).
	Directory tenantapi.DirectoryConfig `json:"directory"`
	// RatePerSec, Burst, AdmitPerTick, TickNs configure each shard's gateway
	// (zero uses the gateway defaults).
	RatePerSec   int64 `json:"rate_per_sec,omitempty"`
	Burst        int64 `json:"burst,omitempty"`
	AdmitPerTick int   `json:"admit_per_tick,omitempty"`
	TickNs       int64 `json:"tick_ns,omitempty"`
	// StepNs is the virtual time between requests within a shard (default
	// 2ms — 500 requests/s of offered load per shard). Burst windows
	// (burstEvery/burstLen) suppress the step so admission control is
	// exercised too.
	StepNs int64 `json:"step_ns,omitempty"`
	// Workers bounds wall-clock parallelism; zero means GOMAXPROCS. Never
	// marshalled: it must not be able to change the report.
	Workers int `json:"-"`
	// Profiler attaches the host-side profiler ("loadgen.shard" phase, pool
	// gauges). nil profiles nothing.
	Profiler *perf.Profiler `json:"-"`
}

func (p Plan) withDefaults() Plan {
	if p.Requests <= 0 {
		p.Requests = 1_000_000
	}
	if p.Shards <= 0 {
		p.Shards = 64
	}
	if p.Shards > p.Requests {
		p.Shards = p.Requests
	}
	if p.StepNs <= 0 {
		p.StepNs = 2 * int64(time.Millisecond)
	}
	return p
}

// Burst windows: every burstEvery requests, the last burstLen arrive at the
// same virtual instant, driving the admission budget past its per-tick
// limit. Deterministic by construction.
const (
	burstEvery = 4096
	burstLen   = 512
)

// traffic skew: one request in hotShare targets the first occupant, so one
// principal's token bucket runs dry while the long tail stays under its
// rate — both sides of the limiter are exercised.
const hotShare = 10

// ShardStats is one shard's tally.
type ShardStats struct {
	Shard         int              `json:"shard"`
	Requests      int64            `json:"requests"`
	Outcomes      map[string]int64 `json:"outcomes"`
	BackendWrites int64            `json:"backend_writes"`
}

// Report is the merged campaign outcome. Its JSON form is a pure function
// of the Plan: workers and wall-clock are excluded from marshalling.
type Report struct {
	Plan     Plan             `json:"plan"`
	Requests int64            `json:"requests"`
	Served   int64            `json:"served"`
	Outcomes map[string]int64 `json:"outcomes"`
	// BackendWrites counts setpoint writes that reached the simulated
	// head-end across all shards.
	BackendWrites int64 `json:"backend_writes"`
	// Counters, Histograms, EventTotals, and Mechanisms are the obs fold
	// across shards: per-route×outcome request counters, per-route latency
	// histograms with recomputed p50/p95/p99, typed denial totals, and the
	// distinct mediating mechanisms.
	Counters    []obs.CounterSnap   `json:"counters"`
	Histograms  []obs.HistogramSnap `json:"histograms"`
	EventTotals []obs.EventTotal    `json:"event_totals"`
	Mechanisms  []obs.Mechanism     `json:"mechanisms"`
	Shards      []ShardStats        `json:"shards"`
	// Workers describes this execution, not the experiment.
	Workers int `json:"-"`
}

// JSON renders the report as indented JSON with a trailing newline.
func (r *Report) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// shardOut is one shard's complete result: the tally plus the obs snapshots
// the merge folds.
type shardOut struct {
	stats    ShardStats
	counters []obs.CounterSnap
	hists    []obs.HistogramSnap
	totals   []obs.EventTotal
	mechs    []obs.Mechanism
}

// Run executes the campaign and merges the shards.
func Run(plan Plan) (*Report, error) {
	plan = plan.withDefaults()
	outs := make([]*shardOut, plan.Shards)
	// Requests split evenly; the first (Requests mod Shards) shards carry
	// one extra.
	base, extra := plan.Requests/plan.Shards, plan.Requests%plan.Shards
	err := lab.ForEachShard("loadgen", plan.Shards, plan.Workers, plan.Profiler, func(i int) error {
		n := base
		if i < extra {
			n++
		}
		outs[i] = runShard(plan, i, n)
		return nil
	})
	if err != nil {
		return nil, err
	}

	msc := plan.Profiler.Phase("loadgen.merge").Begin()
	defer msc.End()
	rep := &Report{
		Plan:     plan,
		Outcomes: make(map[string]int64),
		Workers:  plan.Workers,
	}
	counterSets := make([][]obs.CounterSnap, plan.Shards)
	histSets := make([][]obs.HistogramSnap, plan.Shards)
	totalSets := make([][]obs.EventTotal, plan.Shards)
	mechSets := make([][]obs.Mechanism, plan.Shards)
	for i, o := range outs {
		rep.Requests += o.stats.Requests
		rep.Served += o.stats.Outcomes[tenantapi.OutcomeOK.String()]
		rep.BackendWrites += o.stats.BackendWrites
		for k, v := range o.stats.Outcomes {
			rep.Outcomes[k] += v
		}
		rep.Shards = append(rep.Shards, o.stats)
		counterSets[i] = o.counters
		histSets[i] = o.hists
		totalSets[i] = o.totals
		mechSets[i] = o.mechs
	}
	rep.Counters = obs.MergeCounters(counterSets...)
	rep.Histograms = obs.MergeHistograms(histSets...)
	rep.EventTotals = obs.MergeEventTotals(totalSets...)
	rep.Mechanisms = obs.MergeMechanisms(mechSets...)
	return rep, nil
}

// runShard drives n requests through a fully shard-local gateway.
func runShard(plan Plan, shard, n int) *shardOut {
	var nowNs int64
	now := func() obs.Time { return obs.Time(nowNs) }
	reg := obs.NewRegistry()
	events := obs.NewEventLog(now, 64)
	dir := tenantapi.NewDirectory(plan.Directory)
	rooms := plan.Directory.Rooms
	if rooms <= 0 {
		rooms = 16
	}
	backend := tenantapi.NewSimBackend(rooms, now)
	gw := tenantapi.NewGateway(dir, backend, tenantapi.GatewayConfig{
		Now:          now,
		RatePerSec:   plan.RatePerSec,
		Burst:        plan.Burst,
		AdmitPerTick: plan.AdmitPerTick,
		TickNs:       plan.TickNs,
		Registry:     reg,
		Events:       events,
		Seed:         plan.Seed ^ (0x51ab << 32) ^ uint64(shard),
	})
	r := &tenantapi.SplitMix64{State: plan.Seed ^ 0xc0ffee ^ (uint64(shard) << 20)}
	dirLen := dir.Len()

	var tally [tenantapi.NumOutcomes]int64
	var req tenantapi.Request
	var resp tenantapi.Response
	for k := 0; k < n; k++ {
		// Burst windows arrive at one virtual instant; everything else is
		// evenly paced.
		if k%burstEvery < burstEvery-burstLen {
			nowNs += plan.StepNs
		}
		p := dir.At(int(r.Next() % uint64(dirLen)))
		if r.Next()%hotShare == 0 {
			p = dir.At(0) // the noisy client
		}
		req = tenantapi.Request{Token: p.Token}
		roll := r.Next() % 1000
		switch {
		case roll < 20:
			// Credential-stuffing noise: unknown tokens die at session auth.
			req.Token = "tok-ffffffffffffffff"
			req.Route = tenantapi.RouteStatus
			req.Room = int(r.Next() % uint64(rooms))
		case roll < 570:
			req.Route = tenantapi.RouteStatus
			if p.Role == tenantapi.RoleOccupant && r.Next()%10 != 0 {
				req.Room = p.Room // occupants mostly read their own room
			} else {
				req.Room = int(r.Next() % uint64(rooms))
			}
		case roll < 750:
			req.Route = tenantapi.RouteSetpoint
			req.Room = int(r.Next() % uint64(rooms))
			req.Value = 18 + float64(r.Next()%120)/10 // 18.0–29.9 °C
			if r.Next()%10 == 0 {
				req.Value = 40 // out-of-band: 400 at validation
			}
		case roll < 850:
			req.Route = tenantapi.RouteDiagnostics
		case roll < 980:
			req.Route = tenantapi.RouteWhoAmI
		default:
			// A room the building doesn't have: 404 (or an occupant's 403).
			req.Route = tenantapi.RouteStatus
			req.Room = rooms + int(r.Next()%4)
		}
		tally[gw.Handle(&req, &resp)]++
	}
	out := &shardOut{stats: ShardStats{Shard: shard, Requests: int64(n), Outcomes: make(map[string]int64)}}
	for o, c := range tally {
		if c != 0 {
			out.stats.Outcomes[tenantapi.Outcome(o).String()] = c
		}
	}
	out.stats.BackendWrites = backend.Writes()
	out.counters = reg.Counters()
	out.hists = reg.Histograms()
	out.totals = events.Totals()
	out.mechs = events.Mechanisms()
	return out
}
