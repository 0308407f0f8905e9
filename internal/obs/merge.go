package obs

import (
	"sort"
	"time"
)

// Cross-board merge helpers. The fleet runner (internal/lab) boots many
// independent boards and folds their per-shard reports into one aggregate;
// these helpers define the fold so its output is a deterministic function of
// the inputs alone — sorted by key, never by arrival order.

// MergeCounters sums counter rows from many boards by name. Inputs need not
// be sorted; the result is sorted by name, matching Registry.Counters.
func MergeCounters(sets ...[]CounterSnap) []CounterSnap {
	sums := make(map[string]int64)
	for _, set := range sets {
		for _, c := range set {
			sums[c.Name] += c.Value
		}
	}
	out := make([]CounterSnap, 0, len(sums))
	for name, v := range sums {
		out = append(out, CounterSnap{Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// eventKey is the (kind, mechanism, denied) triple totals are summed by.
type eventKey struct {
	Kind      EventKind
	Mechanism Mechanism
	Denied    bool
}

// MergeEventTotals sums event totals from many boards by (kind, mechanism,
// denied). The result is sorted exactly like EventLog.Totals.
func MergeEventTotals(sets ...[]EventTotal) []EventTotal {
	sums := make(map[eventKey]int64)
	for _, set := range sets {
		for _, t := range set {
			sums[eventKey{t.Kind, t.Mechanism, t.Denied}] += t.Count
		}
	}
	out := make([]EventTotal, 0, len(sums))
	for k, n := range sums {
		out = append(out, EventTotal{Kind: k.Kind, Mechanism: k.Mechanism, Denied: k.Denied, Count: n})
	}
	return sortTotals(out)
}

// MergeMechanisms unions sorted mechanism lists from many boards.
func MergeMechanisms(sets ...[]Mechanism) []Mechanism {
	seen := make(map[Mechanism]bool)
	for _, set := range sets {
		for _, m := range set {
			seen[m] = true
		}
	}
	out := make([]Mechanism, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MergeHistograms sums histogram snapshots from many boards by name, bucket
// by bucket, and recomputes the quantile estimates from the merged buckets
// with the same estimator Histogram.Quantile uses — so a merged p95 is what
// a single board observing every sample would have reported. Snapshots that
// share a name must share bucket bounds (they do when built by the same
// code); a set with mismatched bounds is dropped rather than mis-summed.
// The result is sorted by name, matching Registry.Histograms.
func MergeHistograms(sets ...[]HistogramSnap) []HistogramSnap {
	merged := make(map[string]*Histogram)
	for _, set := range sets {
		for _, snap := range set {
			if len(snap.Buckets) == 0 {
				continue
			}
			h, ok := merged[snap.Name]
			if !ok {
				h = &Histogram{
					bounds: make([]time.Duration, len(snap.Buckets)-1),
					counts: make([]int64, len(snap.Buckets)),
				}
				for i, b := range snap.Buckets[:len(snap.Buckets)-1] {
					h.bounds[i] = time.Duration(b.UpperNanos)
				}
				merged[snap.Name] = h
			}
			if len(snap.Buckets) != len(h.counts) {
				continue
			}
			match := true
			for i, b := range snap.Buckets[:len(snap.Buckets)-1] {
				if time.Duration(b.UpperNanos) != h.bounds[i] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			for i, b := range snap.Buckets {
				h.counts[i] += b.Count
			}
			h.sum += snap.SumNanos
			h.total += snap.Count
		}
	}
	out := make([]HistogramSnap, 0, len(merged))
	for name, h := range merged {
		snap := HistogramSnap{
			Name:     name,
			Count:    h.total,
			SumNanos: h.sum,
			P50Ns:    int64(h.Quantile(0.50)),
			P95Ns:    int64(h.Quantile(0.95)),
			P99Ns:    int64(h.Quantile(0.99)),
		}
		for i, b := range h.bounds {
			snap.Buckets = append(snap.Buckets, BucketSnap{UpperNanos: int64(b), Count: h.counts[i]})
		}
		snap.Buckets = append(snap.Buckets, BucketSnap{UpperNanos: 0, Count: h.counts[len(h.bounds)]})
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
