package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// loadRecords reads a run set: one JSON record per line, as -json appends.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return out, nil
}

// compareSets prints, per workload and end-to-end metric, the median and
// quartiles of each run set, and reports whether the sets agree: medians
// within the metric's bound, every exact metric identical across runs of one
// seed and length, and the same GOMAXPROCS and workers throughout.
func compareSets(a, b []record, w io.Writer) bool {
	agree := true
	first := a[0].Meta
	for _, set := range [][]record{a, b} {
		for _, r := range set {
			if r.Meta.GOMAXPROCS != first.GOMAXPROCS || r.Meta.Workers != first.Workers {
				fmt.Fprintf(w, "DISAGREE: run with GOMAXPROCS=%d workers=%d against GOMAXPROCS=%d workers=%d\n",
					r.Meta.GOMAXPROCS, r.Meta.Workers, first.GOMAXPROCS, first.Workers)
				agree = false
			}
		}
	}

	fmt.Fprintf(w, "%-18s %-13s %-8s %34s %34s %8s %6s\n", "workload", "metric", "unit",
		"A median [Q1, Q3] spread", "B median [Q1, Q3] spread", "change", "bound")
	for _, wl := range workloads {
		ra, rb := resultsFor(a, wl.name), resultsFor(b, wl.name)
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "DISAGREE: %s ran in only one set\n", wl.name)
			agree = false
			continue
		}
		for _, m := range endToEnd {
			xa, xb := metricValues(ra, m.Name), metricValues(rb, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-18s %-13s missing in a set\n", wl.name, m.Name)
				agree = false
				continue
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			change := (b2 - a2) / a2
			verdict := ""
			if math.Abs(change) > m.Bound {
				verdict = "  DISAGREE"
				agree = false
			}
			fmt.Fprintf(w, "%-18s %-13s %-8s %34s %34s %+7.1f%% %5.0f%%%s\n", wl.name, m.Name, m.Unit,
				summary(a1, a2, a3), summary(b1, b2, b3), 100*change, 100*m.Bound, verdict)
		}
	}

	// Exact metrics must repeat bit for bit within every (workload, seed,
	// length) group, across both sets.
	type groupKey struct {
		workload string
		seed     int64
		seconds  int
	}
	seen := map[groupKey]map[string]float64{}
	checked := 0
	for _, set := range [][]record{a, b} {
		for _, r := range set {
			for _, res := range r.Results {
				k := groupKey{res.Workload, r.Meta.Seed, r.Meta.Seconds}
				ref, ok := seen[k]
				if !ok {
					ref = map[string]float64{}
					for name, v := range res.Exact {
						ref[name] = v.Value
					}
					seen[k] = ref
					continue
				}
				for name, v := range res.Exact {
					checked++
					if want, ok := ref[name]; !ok || want != v.Value {
						fmt.Fprintf(w, "DISAGREE: %s seed %d: exact %s reads %v, earlier run %v\n",
							res.Workload, r.Meta.Seed, name, v.Value, want)
						agree = false
					}
				}
			}
		}
	}
	fmt.Fprintf(w, "exact metrics compared: %d values in %d workload/seed groups\n", checked, len(seen))
	return agree
}

func summary(q1, q2, q3 float64) string {
	spread := 0.0
	if q2 != 0 {
		spread = 100 * (q3 - q1) / q2
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g] %.1f%%", q2, q1, q3, spread)
}

func resultsFor(rs []record, workload string) []result {
	var out []result
	for _, r := range rs {
		for _, res := range r.Results {
			if res.Workload == workload {
				out = append(out, res)
			}
		}
	}
	return out
}

func metricValues(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
