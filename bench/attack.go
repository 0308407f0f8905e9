package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"mkbas/internal/attack"
	"mkbas/internal/bas"
	"mkbas/internal/lab"
	"mkbas/internal/perf"
)

// attackJob is the attack-campaign workload: Reps runs of lab.Run over the
// sweep. The sweep is a fixed E1 x plant matrix, so the seed does not apply.
type attackJob struct {
	Sweep string
	Reps  int
}

// caseKey identifies a case in the pinned verdict table independently of its
// shard index, so any sub-sweep of the standard matrix can be checked.
func caseKey(c lab.Case) string {
	return fmt.Sprintf("%s/%s %s plant=%s", c.Platform, c.Model, c.Action, c.Plant)
}

// deployAll boots and tears down the scenario once on every platform: the
// deploy every case pays before its attack starts.
func deployAll() error {
	cfg := bas.DefaultScenario()
	for _, pl := range bas.KnownPlatforms() {
		tb := bas.NewTestbed(cfg)
		dep, err := bas.Deploy(pl, tb, cfg, bas.DeployOptions{})
		if err != nil {
			tb.Machine.Shutdown()
			return fmt.Errorf("deploy %s: %w", pl, err)
		}
		dep.Shutdown()
	}
	return nil
}

func (j attackJob) run(_ int64, workers int, prof *perf.Profiler) (*pass, error) {
	p := newPass()
	sweep, err := lab.ParseSweep(j.Sweep)
	if err != nil {
		return nil, err
	}
	verdicts, err := goldenVerdicts()
	if err != nil {
		return nil, err
	}
	if prof == nil {
		if err := p.timeSetup(nil, deployAll); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	var res *lab.Result
	for r := 0; r < j.Reps; r++ {
		var mu sync.Mutex
		var done []completion
		opts := lab.Options{Workers: workers, Profiler: prof, Progress: func(c lab.Case, _ *attack.Report) {
			mu.Lock()
			done = append(done, completion{shard: c.Shard, at: time.Now()})
			p.heap.sample()
			mu.Unlock()
		}}
		p.startWindow()
		start := time.Now()
		rr, err := lab.Run(sweep, opts)
		p.endWindow()
		if err != nil {
			return nil, err
		}
		// The campaign's result holds every case report; its footprint is
		// the heap a collection finds live now.
		runtime.GC()
		p.heap.sample()
		lat, err := caseLatencies(start, done, rr.Workers)
		if err != nil {
			return nil, err
		}
		p.steps = append(p.steps, lat...)
		for _, sr := range rr.Cases {
			p.attempted++
			want, ok := verdicts[caseKey(sr.Case)]
			if !ok || want != sr.Verdict {
				p.failed++
				p.errs = append(p.errs, fmt.Sprintf("case %s: verdict %s, pinned %q", sr.Case, sr.Verdict, want))
			}
		}
		out, err := rr.JSON()
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(out)
		digest := hex.EncodeToString(sum[:])
		if r > 0 && digest != p.digest {
			p.errs = append(p.errs, fmt.Sprintf("repetition %d report differs from the first", r))
		}
		p.digest = digest
		res = rr
	}
	cases := float64(len(res.Cases) * j.Reps)
	p.units = cases
	p.unitBase = fmt.Sprintf("cases=%.0f (%d x %d repetitions)", cases, len(res.Cases), j.Reps)
	base := fmt.Sprintf("cases=%d", len(res.Cases))
	var events int64
	for _, t := range res.Merged.EventTotals {
		events += t.Count
	}
	n := float64(len(res.Cases))
	p.set("attack.denials_per_case", float64(res.Merged.Denials)/n, 0, base)
	p.set("attack.events_per_case", float64(events)/n, 0, base)
	if prof == nil {
		p.setSteps("lab.case_ms_p50", "lab.case_ms_p90")
		p.set("lab.allocs_per_case", float64(p.allocs)/cases, 0, p.unitBase)
		return p, nil
	}
	snap := prof.Snapshot(true)
	p.phases = snap
	shard := phase(snap, "lab.shard")
	if shard.Count > 0 {
		p.set("lab.case_ms_avg", float64(shard.TotalNs)/float64(shard.Count)/1e6, int(shard.Count), "")
		p.set("lab.case_ms_max", float64(shard.MaxNs)/1e6, int(shard.Count), "")
	}
	if u, ok := gauge(snap, "lab.utilization_pct"); ok {
		p.set("lab.util_pct", float64(u), 0, fmt.Sprintf("workers=%d x campaign wall", res.Workers))
	}
	if merge := phase(snap, "lab.merge"); merge.Count > 0 {
		p.set("obs.merge_ms", float64(merge.TotalNs)/float64(merge.Count)/1e6, int(merge.Count), "per campaign merge")
	}
	if dep := phase(snap, "bas.deploy"); dep.Count > 0 {
		p.set("bas.deploy_ms", float64(dep.TotalNs)/float64(dep.Count)/1e6, int(dep.Count), "")
	}
	if d := phase(snap, "engine.dispatch"); d.Count > 0 {
		p.set("machine.dispatch_ns", float64(d.TotalNs)/float64(d.Count), int(d.Count), "")
	}
	return p, nil
}

// completion is one finished case as the Progress callback saw it.
type completion struct {
	shard int
	at    time.Time
}

// caseLatencies recovers each case's host time from the completion times
// alone. lab.Run queues the cases in shard order on one FIFO channel, so the
// first `workers` shards start with the campaign, and shard workers+k starts
// when the k-th case (in completion order) frees its worker.
func caseLatencies(start time.Time, done []completion, workers int) ([]time.Duration, error) {
	sort.SliceStable(done, func(a, b int) bool { return done[a].at.Before(done[b].at) })
	began := make(map[int]time.Time, len(done))
	for s := 0; s < workers && s < len(done); s++ {
		began[s] = start
	}
	for k := 0; k+workers < len(done); k++ {
		began[k+workers] = done[k].at
	}
	out := make([]time.Duration, 0, len(done))
	for _, c := range done {
		b, ok := began[c.shard]
		if !ok || c.at.Before(b) {
			return nil, fmt.Errorf("case %d finished before the pool could have started it", c.shard)
		}
		out = append(out, c.at.Sub(b))
	}
	return out, nil
}
