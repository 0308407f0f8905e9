package lab

import (
	"fmt"

	"mkbas/internal/attack"
	"mkbas/internal/perf"
)

// Options configures a campaign run.
type Options struct {
	// Workers is the number of boards in flight at once. Zero means
	// GOMAXPROCS. One is the serial reference ordering.
	Workers int
	// Progress, when non-nil, receives one callback per finished case from
	// whichever worker finished it (callers that print must synchronise).
	Progress func(c Case, r *attack.Report)
	// Profiler attaches the host-side performance profiler: each shard books
	// into the "lab.shard" phase (and, with a timeline, a slice on its
	// worker's track), the merge into "lab.merge", and the pool exports
	// utilization and queue-depth gauges. The profile's phase *skeleton*
	// (names, ordering, counts) is a function of the sweep alone; only the
	// timing columns vary with worker count. nil profiles nothing.
	Profiler *perf.Profiler
}

// ShardResult is one case's outcome, in shard position.
type ShardResult struct {
	Case    Case           `json:"case"`
	Verdict string         `json:"verdict"`
	Report  *attack.Report `json:"report"`
}

// Result is a completed campaign. Its JSON form is a deterministic function
// of the sweep alone: Workers is excluded from marshalling so serial and
// parallel runs of the same sweep produce identical bytes.
type Result struct {
	Sweep  Sweep         `json:"sweep"`
	Cases  []ShardResult `json:"cases"`
	Merged Aggregate     `json:"merged"`
	// Workers describes this particular execution, not the experiment; it
	// is deliberately unmarshalled (the determinism rule).
	Workers int `json:"-"`
}

// Run executes every case of the sweep on the shard pool (ForEachShard)
// with opts.Workers goroutines. Each case boots a fresh, fully independent virtual board —
// boards never share mutable state, so data-parallelism cannot perturb any
// board's single-threaded determinism (DESIGN §7). Results land in a slice
// indexed by shard; merge order is shard order, never completion order.
//
// A failing case fails the campaign: remaining shards still run, and the
// error of the lowest-numbered failing shard is returned (again independent
// of timing).
func Run(sweep Sweep, opts Options) (*Result, error) {
	if err := sweep.Validate(); err != nil {
		return nil, err
	}
	cases, err := RunCases(sweep.Expand(), opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Sweep:   sweep.withDefaults(),
		Cases:   cases,
		Workers: poolWidth(len(cases), opts.Workers),
	}
	msc := opts.Profiler.Phase("lab.merge").Begin()
	res.Merged = aggregate(res.Cases)
	msc.End()
	return res, nil
}

// RunCases executes the given cases, each as one shard, the way Run
// executes a sweep's, and returns their results in the order given. It
// serves a caller that keeps only part of an expansion, so that the cases
// it drops never boot.
func RunCases(cases []Case, opts Options) ([]ShardResult, error) {
	results := make([]ShardResult, len(cases))
	err := ForEachShard("lab", len(cases), opts.Workers, opts.Profiler, func(i int) error {
		c := cases[i]
		cfg, err := c.Plant.Scenario()
		if err != nil {
			return err
		}
		spec := c.Spec()
		spec.Profiler = opts.Profiler
		r, err := attack.ExecuteScenario(spec, cfg)
		if err != nil {
			return fmt.Errorf("lab: shard %s: %w", c, err)
		}
		results[i] = ShardResult{Case: c, Verdict: r.Verdict(), Report: r}
		if opts.Progress != nil {
			opts.Progress(c, r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
