package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// tinyWorkloads are the four workloads at test size: five rooms put one board
// on each platform, 1,000 rounds are the fewest with a reportable p99, and 100
// campaigns the fewest with a reportable p90.
var tinyWorkloads = []workloadDef{
	{name: "bldg-control", sized: func(int) job {
		return bldgJob{Rooms: 5, Steps: 1000}
	}},
	{name: "bldg-supervisory", sized: func(int) job {
		return bldgJob{Rooms: 5, Steps: 120, Supervisory: true}
	}},
	{name: "tenant-gateway", sized: func(int) job {
		return tenantJob{Campaigns: 100, Requests: 200}
	}},
	{name: "attack-campaign", sized: func(int) job {
		return attackJob{Sweep: "platforms=minix3-acm;actions=kill-controller;models=both", Reps: 1}
	}},
}

func TestWorkloadsAtTestSize(t *testing.T) {
	m := meta{Seed: 1, Seconds: 1, Workers: 2, Trace: true}
	emitted := map[string]bool{}
	measured := map[string]bool{}
	for _, wl := range tinyWorkloads {
		t.Run(wl.name, func(t *testing.T) {
			res := measure(wl, m)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			if res.Golden != "unpinned" {
				t.Errorf("golden = %q at a test size, want unpinned", res.Golden)
			}
			for name, v := range res.Metrics {
				emitted[name] = true
				if _, ok := lookupMetric(name); !ok || !nameRE.MatchString(name) {
					t.Errorf("end-to-end metric %q is not declared", name)
				}
				if v.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, v.Value)
				}
			}
			if len(res.Layers) != len(perLayer) {
				t.Errorf("traced ledger has %d metrics, want %d", len(res.Layers), len(perLayer))
			}
			for _, def := range perLayer {
				v, ok := res.Layers[def.Name]
				if !ok {
					t.Errorf("per-layer metric %s missing", def.Name)
					continue
				}
				if v.Unit != def.Unit {
					t.Errorf("%s unit %q, declared %q", def.Name, v.Unit, def.Unit)
				}
				if v.Base != notExercised {
					measured[def.Name] = true
				}
			}
			for name := range res.Exact {
				if def, _ := lookupMetric(name); !def.Exact {
					t.Errorf("%s reported as exact but not declared exact", name)
				}
			}
		})
	}
	for _, def := range endToEnd {
		if !emitted[def.Name] {
			t.Errorf("end-to-end metric %s emitted by no workload", def.Name)
		}
	}
	for _, def := range perLayer {
		// A p90 over attack cases needs 100 of them; TestPercentiles covers
		// the rule that omits it below that.
		if !measured[def.Name] && def.Name != "lab.case_ms_p90" {
			t.Errorf("per-layer metric %s measured by no workload", def.Name)
		}
	}
}

// The tracer must not perturb the simulation, and exact counters must repeat
// across runs; measure already fails a run whose traced digest differs.
func TestExactCountersRepeat(t *testing.T) {
	wl := tinyWorkloads[1]
	m := meta{Seed: 3, Seconds: 1, Workers: 2}
	a, b := measure(wl, m), measure(wl, m)
	if a.Digest != b.Digest || !reflect.DeepEqual(a.Exact, b.Exact) {
		t.Fatalf("two runs of seed 3 differ:\n%v\n%v", a.Exact, b.Exact)
	}
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) || bj.RunSeconds != refSeconds {
		t.Errorf("paths %v run_seconds %d", bj.Paths, bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q %q, defined %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	strip := func(ms []metricDef) []metricDef {
		out := make([]metricDef, len(ms))
		for i, m := range ms {
			out[i] = metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q", m.Name)
			}
		}
		return out
	}
	if got, want := bj.EndToEnd, strip(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end\n got %+v\nwant %+v", got, want)
	}
	if got, want := bj.PerLayer, strip(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer\n got %+v\nwant %+v", got, want)
	}
}

func TestGoldenVerdictTable(t *testing.T) {
	v, err := goldenVerdicts()
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 200 {
		t.Fatalf("%d pinned verdicts, want the 200 cases of %s", len(v), attackSweep)
	}
}

func TestPercentiles(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if _, ok := median(nil); ok {
		t.Error("median of no samples reported")
	}
	if v, ok := median([]float64{7}); !ok || v != 7 {
		t.Errorf("median of one sample = %v %v", v, ok)
	}
	if v, _ := median(seq(4)); v != 2 {
		t.Errorf("nearest-rank median of 1..4 = %v, want 2", v)
	}
	if v, beyond := nearestRank(seq(10), 100); v != 10 || beyond != 0 {
		t.Errorf("p100 = %v (%d beyond)", v, beyond)
	}
	if v, _ := nearestRank(seq(3), 0.1); v != 1 {
		t.Errorf("p0.1 = %v, want the minimum", v)
	}
	// p90 of 100 samples is the 90th value with exactly 10 above it.
	if v, ok := tail(seq(100), 90); !ok || v != 90 {
		t.Errorf("p90 of 100 = %v %v", v, ok)
	}
	// One sample fewer leaves 9 beyond: omitted.
	if _, ok := tail(seq(99), 90); ok {
		t.Error("p90 of 99 samples reported with 9 samples beyond it")
	}
	if v, ok := tail(seq(1000), 99); !ok || v != 990 {
		t.Errorf("p99 of 1000 = %v %v", v, ok)
	}
	if _, ok := tail(seq(999), 99); ok {
		t.Error("p99 of 999 samples reported")
	}
	if _, ok := tail(nil, 50); ok {
		t.Error("tail of no samples reported")
	}
	// Reference: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if q1, q2, q3 := quartiles(seq(10)); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v %v %v", q1, q2, q3)
	}
}

func TestCaseLatencies(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Two workers: shards 0 and 1 start at 0; shard 1 frees a worker at 30
	// (shard 2 starts), shard 0 at 50 (shard 3 starts).
	done := []completion{{1, at(30)}, {0, at(50)}, {2, at(70)}, {3, at(60)}}
	got, err := caseLatencies(t0, done, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{30, 50, 10, 40} // completion order: 1, 0, 3, 2
	for i := range want {
		want[i] *= time.Millisecond
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("latencies %v, want %v", got, want)
	}
	if _, err := caseLatencies(t0, []completion{{2, at(10)}, {0, at(20)}}, 1); err == nil {
		t.Error("a case finishing before its worker was free was accepted")
	}
}

func TestCompare(t *testing.T) {
	mk := func(throughput float64, traps float64, procs int) record {
		return record{
			Meta: meta{GOMAXPROCS: procs, Workers: 2, Seed: 1, Seconds: 20},
			Results: []result{{
				Workload: "tenant-gateway",
				Metrics: map[string]value{
					"setup_s": {Value: 1}, "throughput": {Value: throughput}, "peak_heap_mb": {Value: 5},
				},
				Exact: map[string]value{"tenantapi.served_ratio": {Value: traps}},
			}},
		}
	}
	set := func(tp float64, exact float64, procs int) []record {
		return []record{mk(tp, exact, procs), mk(tp*1.01, exact, procs), mk(tp*0.99, exact, procs)}
	}
	cases := []struct {
		name  string
		b     []record
		agree bool
	}{
		{"same", set(100, 0.5, 2), true},
		{"within bound", set(90, 0.5, 2), true},
		{"beyond bound", set(70, 0.5, 2), false},
		{"better beyond bound", set(130, 0.5, 2), false},
		{"exact differs", set(100, 0.6, 2), false},
		{"GOMAXPROCS differs", set(100, 0.5, 1), false},
	}
	for _, c := range cases {
		if got := compareSets(set(100, 0.5, 2), c.b, io.Discard); got != c.agree {
			t.Errorf("%s: agree = %v, want %v", c.name, got, c.agree)
		}
	}
}
