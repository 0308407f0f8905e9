// Command bench is the repository benchmark. It drives four named workloads
// through the simulator's public entry points (building.New and
// Building.Step, loadgen.Run, lab.Run), checks the simulation's outputs
// against invariants and pinned digests, and prints every end-to-end metric
// by name with its unit. With -trace 1 it repeats each workload under the
// host profiler and a counting bus tap and prints the per-layer ledger
// instead. BENCHMARK.json at the repository root declares the same workloads
// and metrics; see bench/README.md.
//
// Usage:
//
//	go run ./bench                                   # all workloads, seed 1
//	go run ./bench -workload bldg-control -seed 2
//	go run ./bench -workload tenant-gateway -trace 1 -json layers.json
//	go run ./bench -compare setA.jsonl setB.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"mkbas/internal/perf"
)

// refSeconds is the run length at which the workloads take their reference
// sizes and the pinned digests hold. -seconds scales every workload from it.
const refSeconds = 20

// job is one sized workload. run executes it once; a nil profiler is the
// untraced pass.
type job interface {
	run(seed int64, workers int, prof *perf.Profiler) (*pass, error)
}

// workloadDef names a workload, says why the benchmark runs it, and sizes it
// for a run length.
type workloadDef struct {
	name, why string
	sized     func(seconds int) job
}

// scale sizes n reference units for a run of the given seconds.
func scale(n, seconds int) int { return max(1, n*seconds/refSeconds) }

// attackSweep is the fixed E1 x plant matrix: 5 platforms x 5 actions x 2
// attacker models x 4 plants = 200 cases.
const attackSweep = "platforms=all;actions=all;models=both;plants=all"

var workloads = []workloadDef{
	{
		name: "bldg-control",
		why:  "64 rooms on 5 kernels with 30 s head-end polls: control cycles dominate, so kernel IPC, dispatch and device-I/O costs show here and bus or BACnet costs should not",
		sized: func(s int) job {
			return bldgJob{Rooms: 64, WarmupRounds: 900, Steps: scale(86_400, s)}
		},
	},
	{
		name: "bldg-supervisory",
		why:  "the same rooms polled every round with the policy monitor and tenant API on: head-end, bus flush, BACnet and per-IPC monitor costs show beside the same kernels",
		sized: func(s int) job {
			return bldgJob{Rooms: 64, WarmupRounds: 900, Steps: scale(21_600, s), Supervisory: true}
		},
	},
	{
		name: "tenant-gateway",
		why:  "1M-request open-loop campaigns through session auth, RBAC, rate limits and backpressure with no kernel or bus: a kernel or building change must read no change here",
		sized: func(s int) job {
			return tenantJob{Campaigns: scale(128, s), Requests: 1_000_000}
		},
	},
	{
		name: "attack-campaign",
		why:  "200-case attack x plant matrix: deploy, policy gates, attack code and kernel denial paths, allocation-heavy against the buildings' allocation-free fast path",
		sized: func(s int) job {
			return attackJob{Sweep: attackSweep, Reps: max(1, (s+refSeconds/2)/refSeconds)}
		},
	},
}

// meta records the conditions of one invocation.
type meta struct {
	Go         string `json:"go"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

// result is one workload's outcome.
type result struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	ErrorRate float64  `json:"error_rate"`
	Errors    []string `json:"errors,omitempty"`
	Digest    string   `json:"digest"`
	// Golden is "match", "mismatch", or "unpinned" for a seed or length
	// without a pinned digest.
	Golden  string           `json:"golden"`
	Metrics map[string]value `json:"metrics"`
	// Exact holds the deterministic per-layer counters, read from every run.
	Exact map[string]value `json:"exact"`
	// Layers and Phases are the traced pass's full ledger and raw profile.
	Layers map[string]value `json:"layers,omitempty"`
	Phases *perf.Snapshot   `json:"phases,omitempty"`
}

// record is one invocation, as -json appends it.
type record struct {
	Meta    meta     `json:"meta"`
	Results []result `json:"results"`
}

func main() {
	os.Exit(run())
}

func run() int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	workload := flag.String("workload", "all", "comma-separated workloads to run, or all: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "input seed: room i runs scenario seed+i, campaign k runs loadgen seed (seed<<32)|k")
	seconds := flag.Int("seconds", refSeconds, "run length; every workload is sized from it")
	trace := flag.Int("trace", 0, "1 repeats each workload traced and prints the per-layer ledger")
	jsonOut := flag.String("json", "", "append this invocation's result as one JSON line to the file")
	cmp := flag.Bool("compare", false, "compare two run sets: bench -compare A.jsonl B.jsonl")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two run-set files")
			return 2
		}
		a, err := loadRecords(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		b, err := loadRecords(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if !compareSets(a, b, os.Stdout) {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	selected, err := selectWorkloads(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	workers := runtime.NumCPU()
	rec := record{Meta: meta{
		Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: workers, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
	}}
	status := 0
	for _, wl := range selected {
		fmt.Fprintf(os.Stderr, "bench: running %s\n", wl.name)
		res := measure(wl, rec.Meta)
		rec.Results = append(rec.Results, res)
		printResult(os.Stdout, rec.Meta, res)
		if !res.Correct {
			status = 1
		}
	}
	if *jsonOut != "" {
		if err := appendJSON(*jsonOut, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return status
}

func selectWorkloads(spec string) ([]workloadDef, error) {
	if spec == "all" {
		return workloads, nil
	}
	var out []workloadDef
	for _, name := range strings.Split(spec, ",") {
		found := false
		for _, w := range workloads {
			if w.name == name {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// measure runs a workload untraced for the end-to-end metrics and, when
// tracing, again under the profiler for the ledger.
func measure(wl workloadDef, m meta) result {
	res := result{Workload: wl.name, Golden: "unpinned"}
	j := wl.sized(m.Seconds)
	p, err := j.run(m.Seed, m.Workers, nil)
	if err != nil {
		res.Errors = []string{fmt.Sprintf("%s: %v", wl.name, err)}
		res.Attempted, res.Failed, res.ErrorRate = 1, 1, 1
		return res
	}
	res.Attempted, res.Failed = p.attempted, p.failed
	res.Errors = p.errs
	res.Digest = p.digest
	res.Metrics = endToEndValues(p)
	res.Exact = map[string]value{}
	for name, v := range p.layers {
		if def, _ := lookupMetric(name); def.Exact {
			res.Exact[name] = v
		}
	}
	if want, err := goldenDigest(wl.name, m.Seed, m.Seconds); err != nil {
		res.Errors = append(res.Errors, err.Error())
	} else if want != "" {
		res.Golden = "match"
		if want != p.digest {
			res.Golden = "mismatch"
			res.Errors = append(res.Errors, fmt.Sprintf("report digest %s, pinned %s", p.digest, want))
		}
	}
	if m.Trace {
		traceInto(&res, j, m, p)
	}
	res.Correct = len(res.Errors) == 0
	if !res.Correct {
		res.Failed = res.Attempted
	}
	if res.Attempted > 0 {
		res.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	}
	return res
}

// notExercised is the base of a ledger row the workload does not reach.
const notExercised = "not exercised by this workload"

// traceInto runs the traced pass and assembles the full per-layer ledger:
// host-time rows from the traced pass, everything the untraced pass measured
// (exact counters, tail latencies, allocation counts) from that pass, and 0
// for layers the workload does not exercise.
func traceInto(res *result, j job, m meta, untraced *pass) {
	tp, err := j.run(m.Seed, m.Workers, perf.New(perf.Options{}))
	if err != nil {
		res.Errors = append(res.Errors, "traced pass: "+err.Error())
		return
	}
	res.Errors = append(res.Errors, tp.errs...)
	if tp.digest != untraced.digest {
		res.Errors = append(res.Errors, fmt.Sprintf("traced report digest %s differs from untraced %s", tp.digest, untraced.digest))
	}
	res.Layers = map[string]value{}
	for _, def := range perLayer {
		res.Layers[def.Name] = value{Unit: def.Unit, Base: notExercised}
	}
	for _, src := range []map[string]value{tp.layers, untraced.layers} {
		for name, v := range src {
			res.Layers[name] = v
		}
	}
	overhead := 100 * float64(tp.wall-untraced.wall) / float64(untraced.wall)
	res.Layers["perf.trace_overhead_pct"] = value{Value: overhead, Unit: "%",
		Base: fmt.Sprintf("untraced wall=%s, traced wall=%s", untraced.wall, tp.wall)}
	res.Phases = tp.phases
}

// endToEndValues derives the end-to-end metrics from an untraced pass.
func endToEndValues(p *pass) map[string]value {
	out := map[string]value{}
	setup := make([]float64, len(p.setup))
	for i, d := range p.setup {
		setup[i] = d.Seconds()
	}
	sort.Float64s(setup)
	if v, ok := median(setup); ok {
		out["setup_s"] = value{Value: v, Unit: "s", Samples: len(setup)}
	}
	if p.wall > 0 {
		out["throughput"] = value{Value: p.units / p.wall.Seconds(), Unit: "units/s",
			Base: fmt.Sprintf("%s in %s", p.unitBase, p.wall)}
	}
	out["peak_heap_mb"] = value{Value: float64(p.heap.peak) / 1e6, Unit: "MB"}
	return out
}

// printResult writes the human-readable summary and, as its last line, the
// one-line JSON verdict: end-to-end metrics untraced, the ledger traced.
func printResult(w io.Writer, m meta, res result) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%d workers=%d GOMAXPROCS=%d NumCPU=%d %s ==\n",
		res.Workload, m.Seed, m.Seconds, m.Workers, m.GOMAXPROCS, m.NumCPU, m.Go)
	printValues(w, endToEnd, res.Metrics)
	if res.Layers != nil {
		fmt.Fprintln(w, "-- per-layer ledger --")
		printValues(w, perLayer, res.Layers)
	} else {
		fmt.Fprintln(w, "-- exact counters --")
		printValues(w, perLayer, res.Exact)
	}
	fmt.Fprintf(w, "digest %s (golden: %s)\n", res.Digest, res.Golden)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "ERROR: %s\n", e)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d error_rate=%g\n", res.Correct, res.Attempted, res.Failed, res.ErrorRate)

	type short struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := res.Metrics
	if m.Trace {
		src = res.Layers
	}
	metrics := map[string]short{}
	for name, v := range src {
		metrics[name] = short{v.Value, v.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]short `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	fmt.Fprintln(w, string(line))
}

func printValues(w io.Writer, defs []metricDef, vals map[string]value) {
	for _, def := range defs {
		v, ok := vals[def.Name]
		if !ok {
			continue
		}
		note := ""
		if v.Samples > 0 {
			note = fmt.Sprintf(" n=%d", v.Samples)
		}
		if v.Base != "" {
			note += " base: " + v.Base
		}
		fmt.Fprintf(w, "  %-38s %14.6g %-14s%s\n", def.Name, v.Value, v.Unit, note)
	}
}

func appendJSON(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
