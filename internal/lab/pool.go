package lab

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mkbas/internal/perf"
)

// ForEachShard runs fn(shard) for shards 0..n-1 across a pool of workers
// goroutines. It is the repo's shard pool, one of its two pool shapes: the
// attack campaign (Run, RunCases), the building campaign (RunBuilding), and
// the tenant-API load generator all schedule one-shot shards through it,
// while one building's lockstep rounds run on internal/building's own
// round pool (DESIGN §9). Each shard must be fully independent, results
// must land in shard-indexed storage owned by the caller, and any merge must
// follow in shard order, never completion order — that is what keeps output
// bytes independent of the worker count.
//
// workers <= 0 means GOMAXPROCS. Shard wall time books into the
// "<kind>.shard" profiler phase (with a timeline, as a "shard-NN" slice on
// the worker's "<kind>-worker-NN" track) and the pool exports utilization
// and queue-depth gauges under kind; a nil profiler records nothing. Every
// shard runs even when one fails; the error of the lowest-numbered failing
// shard is returned, independent of timing.
func ForEachShard(kind string, n, workers int, prof *perf.Profiler, fn func(shard int) error) error {
	if n <= 0 {
		return nil
	}
	workers = poolWidth(n, workers)
	start := time.Now()
	errs := make([]error, n)
	// The queue is buffered so its length is observable: sampling len(jobs)
	// at each dequeue gives the queue-depth high-water gauge.
	jobs := make(chan int, n)
	pool := newPoolStats(prof, workers)
	phShard := prof.Phase(kind + ".shard")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		var track *perf.Track
		if prof.TimelineEnabled() {
			track = prof.Track(fmt.Sprintf("%s-worker-%02d", kind, w))
		}
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				pool.enter(len(jobs))
				var label string
				if track != nil {
					label = fmt.Sprintf("shard-%02d", i)
				}
				sc := phShard.BeginOn(track, label)
				jobStart := time.Now()
				errs[i] = fn(i)
				sc.End()
				pool.exit(w, time.Since(jobStart))
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	pool.export(kind, int64(time.Since(start)))
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// poolWidth is the number of workers ForEachShard actually starts for n
// shards: workers <= 0 means GOMAXPROCS, and no more workers than shards.
func poolWidth(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// poolStats instruments one worker pool: in-flight high-water mark, queue
// high-water mark, and per-worker busy time, exported as perf gauges.
type poolStats struct {
	prof     *perf.Profiler
	inflight int64
	maxIn    int64
	maxQ     int64
	busyNs   []int64
}

func newPoolStats(prof *perf.Profiler, workers int) *poolStats {
	return &poolStats{prof: prof, busyNs: make([]int64, workers)}
}

// enter marks one job starting; depth is the queue length observed at
// dequeue time.
func (ps *poolStats) enter(depth int) {
	in := atomic.AddInt64(&ps.inflight, 1)
	atomicMax(&ps.maxIn, in)
	atomicMax(&ps.maxQ, int64(depth))
}

// exit marks one job done, folding its wall time into the worker's account.
func (ps *poolStats) exit(worker int, d time.Duration) {
	atomic.AddInt64(&ps.inflight, -1)
	atomic.AddInt64(&ps.busyNs[worker], int64(d))
}

// export publishes the pool gauges. wallNs is the pool's total wall-clock;
// utilization is the busy share of workers × wall, in percent.
func (ps *poolStats) export(prefix string, wallNs int64) {
	ps.prof.SetGauge(prefix+".workers", int64(len(ps.busyNs)))
	ps.prof.SetGauge(prefix+".max_inflight", atomic.LoadInt64(&ps.maxIn))
	ps.prof.SetGauge(prefix+".queue_high_water", atomic.LoadInt64(&ps.maxQ))
	var busy int64
	for w := range ps.busyNs {
		b := atomic.LoadInt64(&ps.busyNs[w])
		busy += b
		ps.prof.SetGauge(fmt.Sprintf("%s.worker%02d.busy_ns", prefix, w), b)
	}
	if total := int64(len(ps.busyNs)) * wallNs; total > 0 {
		ps.prof.SetGauge(prefix+".utilization_pct", busy*100/total)
	}
}

func atomicMax(addr *int64, v int64) {
	for {
		old := atomic.LoadInt64(addr)
		if v <= old || atomic.CompareAndSwapInt64(addr, old, v) {
			return
		}
	}
}
