package lab

import (
	"encoding/json"
	"testing"
	"time"
)

// TestRunBenchDetectsDivergence: one width whose bytes differ from the
// first run's clears Identical.
func TestRunBenchDetectsDivergence(t *testing.T) {
	rep, err := RunBench("t", []int{1, 2, 4}, 1, func(w int) (BenchRun, error) {
		out := []byte("same")
		if w == 2 {
			out = []byte("different")
		}
		return BenchRun{Out: out, Elapsed: time.Millisecond, Workers: w, Shards: 4}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Identical {
		t.Fatal("divergent run at workers=2 left Identical set")
	}
}

// TestRunBenchZeroElapsed: a run too fast to time yields zero rates, never
// ±Inf or NaN, and the report still marshals.
func TestRunBenchZeroElapsed(t *testing.T) {
	rep, err := RunBench("t", []int{1, 2}, 1, func(w int) (BenchRun, error) {
		return BenchRun{Out: []byte("x"), Workers: w, Shards: 4, BoardSecs: 100, Requests: 1000}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Points {
		for _, v := range []float64{p.ShardsPerSec, p.BoardStepsPerSec, p.RequestsPerSec, p.Speedup} {
			if v != 0 {
				t.Fatalf("workers=%d: rate %v from zero elapsed, want 0 (%+v)", p.Workers, v, p)
			}
		}
	}
	if _, err := rep.JSON(); err != nil {
		t.Fatalf("zero-elapsed report does not marshal: %v", err)
	}
}

// TestRunBenchRecordsEffectiveWidth: the point records the width the run
// reports, not the width it was asked for, and the rates follow the run's
// work.
func TestRunBenchRecordsEffectiveWidth(t *testing.T) {
	rep, err := RunBench("t", []int{1, 8}, 2, func(w int) (BenchRun, error) {
		return BenchRun{Out: []byte("x"), Elapsed: time.Second, Workers: min(w, 3), Shards: 3, Requests: 30}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shards != 3 || rep.HostCPUs != 2 || !rep.Identical {
		t.Fatalf("report header %+v", rep)
	}
	if got := rep.Points[1]; got.Workers != 3 || got.ShardsPerSec != 3 || got.RequestsPerSec != 30 || got.Speedup != 1 {
		t.Fatalf("clamped point %+v, want workers=3 at 3 shards/s, 30 req/s, speedup 1", got)
	}
	out, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(out, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"shards", "points", "identical", "host_cpus", "gomaxprocs", "parallelism_effective"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("bench report lacks %q:\n%s", k, out)
		}
	}
}

func TestRunBenchNeedsWorkerCounts(t *testing.T) {
	if _, err := RunBench("t", nil, 1, func(int) (BenchRun, error) {
		t.Fatal("run called with no worker counts")
		return BenchRun{}, nil
	}); err == nil {
		t.Fatal("empty worker-count list accepted")
	}
}
