package lab

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mkbas/internal/perf"
)

// poolGauge runs ForEachShard under a profiler and returns one exported
// gauge.
func poolGauge(t *testing.T, n, workers int, name string) int64 {
	t.Helper()
	prof := perf.New(perf.Options{})
	if err := ForEachShard("t", n, workers, prof, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for _, g := range prof.Snapshot(true).Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	t.Fatalf("gauge %s not exported", name)
	return 0
}

// TestForEachShardRunsEveryShardAndReturnsLowestError: a failing shard does
// not stop the pool, and the reported error is the lowest-numbered failing
// shard's whatever order the workers finished in.
func TestForEachShardRunsEveryShardAndReturnsLowestError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 10
			var ran [n]int32
			errs := map[int]error{3: errors.New("shard 3"), 5: errors.New("shard 5")}
			err := ForEachShard("t", n, workers, nil, func(i int) error {
				atomic.AddInt32(&ran[i], 1)
				return errs[i]
			})
			if !errors.Is(err, errs[3]) {
				t.Fatalf("error = %v, want shard 3's", err)
			}
			for i, c := range ran {
				if c != 1 {
					t.Errorf("shard %d ran %d times, want 1", i, c)
				}
			}
		})
	}
}

func TestForEachShardEmptyIsNoOp(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for _, n := range []int{0, -1} {
			called := false
			if err := ForEachShard("t", n, workers, nil, func(int) error { called = true; return errors.New("x") }); err != nil || called {
				t.Errorf("n=%d workers=%d: err=%v called=%v, want a no-op", n, workers, err, called)
			}
		}
	}
}

// TestForEachShardWidth: workers <= 0 means GOMAXPROCS, and the pool never
// starts more workers than there are shards.
func TestForEachShardWidth(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, workers := range []int{0, -2} {
		if got := poolGauge(t, procs+3, workers, "t.workers"); got != int64(procs) {
			t.Errorf("workers=%d: pool width %d, want GOMAXPROCS=%d", workers, got, procs)
		}
	}
	if got := poolGauge(t, 3, 8, "t.workers"); got != 3 {
		t.Errorf("8 workers on 3 shards: pool width %d, want 3", got)
	}
}

// TestRunBuildingZeroWorkersMeansOne: the building campaign keeps its
// documented serial default rather than the pool's GOMAXPROCS one.
func TestRunBuildingZeroWorkersMeansOne(t *testing.T) {
	sweep := BuildingSweep{
		Rooms:   []int{2},
		Mixes:   []Mix{"paper", "linux"},
		Secures: []SecurePattern{"even"},
		Attacks: []bool{false},
		Settle:  2 * time.Minute,
		Window:  2 * time.Minute,
	}
	prof := perf.New(perf.Options{Timeline: true})
	res, err := RunBuilding(sweep, BuildingOptions{Profiler: prof})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 2 || res.Workers != 1 {
		t.Fatalf("cases=%d workers=%d, want 2 cases on 1 worker", len(res.Cases), res.Workers)
	}
	if trace, err := prof.ChromeTrace(true); err != nil || !strings.Contains(string(trace), "lab-worker-00") || strings.Contains(string(trace), "lab-worker-01") {
		t.Fatalf("want exactly one pool worker track (err %v):\n%s", err, trace)
	}
}
