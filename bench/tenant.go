package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"mkbas/internal/obs"
	"mkbas/internal/perf"
	"mkbas/internal/tenantapi"
	"mkbas/internal/tenantapi/loadgen"
)

// tenantJob is the tenant-gateway workload: Campaigns back-to-back
// loadgen.Run campaigns of Requests requests each, over the default 64
// shards, open loop in virtual time.
type tenantJob struct {
	Campaigns int
	Requests  int
}

// campaignSeed gives campaign k of a run its own loadgen seed, so each -seed
// selects a distinct family of campaigns.
func campaignSeed(seed int64, k int) uint64 { return uint64(seed)<<32 | uint64(k) }

// knownOutcomes are the tally keys a campaign may produce.
var knownOutcomes = func() map[string]bool {
	m := map[string]bool{}
	for o := tenantapi.Outcome(0); o < tenantapi.NumOutcomes; o++ {
		m[o.String()] = true
	}
	return m
}()

func (j tenantJob) run(seed int64, workers int, prof *perf.Profiler) (*pass, error) {
	p := newPass()
	if prof == nil {
		// Set-up: a campaign with one request per shard is almost all shard
		// construction (directory, gateway, limiter) and merge.
		err := p.timeSetup(nil, func() error {
			_, err := loadgen.Run(loadgen.Plan{Seed: campaignSeed(seed, 0), Requests: 64, Workers: workers})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up campaign: %w", err)
		}
	}
	digest := sha256.New()
	outcomes := map[string]int64{}
	var latency []obs.HistogramSnap
	var requests int64
	for k := 0; k < j.Campaigns; k++ {
		p.startWindow()
		start := time.Now()
		rep, err := loadgen.Run(loadgen.Plan{Seed: campaignSeed(seed, k), Requests: j.Requests, Workers: workers, Profiler: prof})
		p.steps = append(p.steps, time.Since(start))
		p.endWindow()
		if err != nil {
			return nil, fmt.Errorf("campaign %d: %w", k, err)
		}
		// A campaign allocates too little to trigger a collection reliably, so
		// the live heap is measured by one, while the campaign's report is
		// still held.
		runtime.GC()
		p.heap.sample()
		out, err := rep.JSON()
		if err != nil {
			return nil, err
		}
		digest.Write(out)
		// A request is lost when the tally misses it, or books it under an
		// outcome the gateway does not define. Typed denials are designed
		// outcomes, not failures.
		var tallied int64
		for o, n := range rep.Outcomes {
			outcomes[o] += n
			if knownOutcomes[o] {
				tallied += n
			}
		}
		lost := int64(j.Requests) - tallied
		if lost < 0 {
			lost = -lost
		}
		if rep.Requests != int64(j.Requests) || lost != 0 {
			p.errs = append(p.errs, fmt.Sprintf("campaign %d: %d requests planned, %d reported, %d outside the tally",
				k, j.Requests, rep.Requests, lost))
		}
		p.failed += lost
		requests += int64(j.Requests)
		latency = obs.MergeHistograms(latency, rep.Histograms)
	}
	p.units = float64(requests)
	p.unitBase = fmt.Sprintf("requests=%d (%d campaigns x %d)", requests, j.Campaigns, j.Requests)
	p.attempted = requests
	p.digest = hex.EncodeToString(digest.Sum(nil))

	tenantRatios(p, requests, func(o string) int64 { return outcomes[o] })
	if h := findHist(latency, statusLatency); h != nil {
		p.set("tenantapi.vlat_ms_p99", float64(h.P99Ns)/1e6, int(h.Count), "all campaigns")
	}
	if prof == nil {
		p.setSteps("tenantapi.campaign_ms_p50", "tenantapi.campaign_ms_p90")
		p.set("tenantapi.allocs_per_req", float64(p.allocs)/float64(requests), 0, p.unitBase)
		return p, nil
	}
	snap := prof.Snapshot(true)
	p.phases = snap
	shard := phase(snap, "loadgen.shard")
	p.set("tenantapi.handle_ns", float64(shard.TotalNs)/float64(requests), int(shard.Count), p.unitBase)
	if merge := phase(snap, "loadgen.merge"); merge.Count > 0 {
		p.set("obs.merge_ms", float64(merge.TotalNs)/float64(merge.Count)/1e6, int(merge.Count), "per campaign merge")
	}
	return p, nil
}
