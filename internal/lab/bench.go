package lab

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"mkbas/internal/attack"
)

// BenchPoint is one worker-count measurement.
type BenchPoint struct {
	Workers int `json:"workers"`
	// ElapsedMS is wall-clock time for the whole campaign, in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	// ShardsPerSec is campaign throughput.
	ShardsPerSec float64 `json:"shards_per_sec"`
	// BoardStepsPerSec is per-board simulation rate: board·virtual-seconds
	// simulated per wall-clock second, summed over every board in flight —
	// the hardware-independent number for comparing bench records.
	BoardStepsPerSec float64 `json:"board_steps_per_sec"`
	// RequestsPerSec is API-request throughput, set only by request-oriented
	// benches (cmd/basload): simulated tenant requests processed per
	// wall-clock second at this worker count.
	RequestsPerSec float64 `json:"requests_per_sec,omitempty"`
	// Speedup is relative to the first (serial) point.
	Speedup float64 `json:"speedup"`
}

// BenchReport is the scaling measurement check.sh records to BENCH_lab.json.
type BenchReport struct {
	Shards int          `json:"shards"`
	Points []BenchPoint `json:"points"`
	// Identical confirms the determinism contract held: every worker
	// count's merged JSON was byte-identical to the serial run's.
	Identical bool `json:"identical"`
	// HostCPUs is the host's logical CPU count at measurement time.
	HostCPUs int `json:"host_cpus"`
	// GOMAXPROCS is the Go scheduler's parallelism limit at measurement
	// time — scaling beyond min(host_cpus, gomaxprocs) is not expected.
	GOMAXPROCS int `json:"gomaxprocs"`
	// ParallelismEffective is false when GOMAXPROCS == 1: every worker count
	// then time-slices one OS thread, so the speedup curve is noise, not a
	// scaling measurement. Readers (and benchguard) must not interpret the
	// Speedup column of such a record.
	ParallelismEffective bool `json:"parallelism_effective"`
}

// perSec converts a count over elapsedNs nanoseconds to a per-second rate,
// guarding against zero (or negative) elapsed on very fast sweeps — a raw
// division would yield ±Inf, which json.Marshal rejects.
func perSec(n, elapsedNs float64) float64 {
	if elapsedNs <= 0 {
		return 0
	}
	return n / (elapsedNs / 1e9)
}

// speedupOf guards the baseline/elapsed ratio the same way.
func speedupOf(baseNs, elapsedNs float64) float64 {
	if elapsedNs <= 0 {
		return 0
	}
	return baseNs / elapsedNs
}

// warnIfSerial flags a degenerate bench host on stderr and reports whether
// parallelism is effective, so every bench record carries the same honesty
// warning.
func warnIfSerial(kind string) bool {
	if runtime.GOMAXPROCS(0) > 1 {
		return true
	}
	fmt.Fprintf(os.Stderr, "lab: warning: GOMAXPROCS=1, %s bench speedups are time-slicing noise (parallelism_effective=false)\n", kind)
	return false
}

// BenchRun is what one run of a scaling bench reports to RunBench.
type BenchRun struct {
	// Out is the run's deterministic output; every width must reproduce the
	// first run's bytes.
	Out []byte
	// Elapsed is the run's wall-clock time.
	Elapsed time.Duration
	// Workers is the width that actually ran, after any clamp to the shard
	// count.
	Workers int
	// Shards, BoardSecs, and Requests are the run's work: independent
	// shards, board·virtual-seconds simulated, and tenant requests (zero
	// for benches that are not request-oriented).
	Shards    int
	BoardSecs float64
	Requests  int64
}

// RunBench is the one scaling-bench driver behind Bench, BenchBuilding, and
// the tenant-API load generator's bench. It calls run once per worker count,
// checks that every run's output is byte-identical to the first, and turns
// each run's work and wall time into a BenchPoint. The first worker count is
// the speedup baseline, so pass 1 first for honest serial-relative numbers.
// kind names the bench in the serial-host warning.
func RunBench(kind string, workerCounts []int, hostCPUs int, run func(workers int) (BenchRun, error)) (*BenchReport, error) {
	if len(workerCounts) == 0 {
		return nil, fmt.Errorf("lab: no worker counts to bench")
	}
	rep := &BenchReport{
		Identical:            true,
		HostCPUs:             hostCPUs,
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		ParallelismEffective: warnIfSerial(kind),
	}
	var baseline []byte
	var baseNs float64
	for i, w := range workerCounts {
		r, err := run(w)
		if err != nil {
			return nil, err
		}
		ns := float64(r.Elapsed.Nanoseconds())
		if i == 0 {
			rep.Shards, baseline, baseNs = r.Shards, r.Out, ns
		} else if !bytes.Equal(r.Out, baseline) {
			rep.Identical = false
		}
		rep.Points = append(rep.Points, BenchPoint{
			Workers:          r.Workers,
			ElapsedMS:        ns / 1e6,
			ShardsPerSec:     perSec(float64(r.Shards), ns),
			BoardStepsPerSec: perSec(r.BoardSecs, ns),
			RequestsPerSec:   perSec(float64(r.Requests), ns),
			Speedup:          speedupOf(baseNs, ns),
		})
	}
	return rep, nil
}

// Bench runs the sweep once per worker count through RunBench; each run's
// merged JSON is the determinism witness.
func Bench(sweep Sweep, workerCounts []int, hostCPUs int) (*BenchReport, error) {
	// Every campaign shard is one board simulating the full attack timeline.
	virtSecsPerShard := attack.RunDuration().Seconds()
	return RunBench("lab", workerCounts, hostCPUs, func(w int) (BenchRun, error) {
		res, err := Run(sweep, Options{Workers: w})
		if err != nil {
			return BenchRun{}, err
		}
		out, err := res.JSON()
		return BenchRun{
			Out:       out,
			Elapsed:   res.Elapsed,
			Workers:   res.Workers,
			Shards:    len(res.Cases),
			BoardSecs: float64(len(res.Cases)) * virtSecsPerShard,
		}, err
	})
}

// JSON renders the bench report as indented JSON with a trailing newline.
func (r *BenchReport) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
