package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile for it to
// be reported: a p90 over 50 samples rests on 5 values and moves with each.
const minBeyond = 10

// sortedMs returns the durations as sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// nearestRank is the nearest-rank p-th percentile of sorted xs (0 < p <=
// 100) and the number of samples above it.
func nearestRank(xs []float64, p float64) (v float64, beyond int) {
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], len(xs) - rank
}

// median is the nearest-rank p50 of sorted xs; it is reported at any sample
// count. ok is false for an empty slice.
func median(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	v, _ := nearestRank(xs, 50)
	return v, true
}

// tail is the nearest-rank p-th percentile of sorted xs, omitted (ok false)
// when fewer than minBeyond samples lie above it.
func tail(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	v, beyond := nearestRank(xs, p)
	return v, beyond >= minBeyond
}

// quartiles returns Q1, median and Q3 of xs by the method Python's
// statistics.quantiles(xs, n=4) uses (exclusive, clamped), so spreads printed
// by -compare match the same calculation done in Python.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	n := len(d)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}
