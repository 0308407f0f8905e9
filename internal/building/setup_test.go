package building

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"mkbas/internal/bas"
)

// TestSetupByteBudget gates the bytes one building set-up allocates, in the
// shape of the supervisory bench workload: 64 rooms over all five
// platforms, every even room secure, the head-end polling every round, and
// the policy monitor and tenant API attached. A set-up that allocates more
// than the heap's headroom after a collection runs a GC cycle inside
// itself, which costs more wall time than the bytes suggest; the budget
// keeps set-up well clear of that.
//
// The first set-up finishes the process's own lazy work (the shared boot
// images), as the bench's untimed one does; the second is measured. Each
// budget is its build's reading on go1.24 plus about 10%: the race
// detector's instrumentation allocates about 15% more.
func TestSetupByteBudget(t *testing.T) {
	budget := uint64(1_150_000)
	if raceBuild() {
		budget = 1_310_000
	}
	cfg := Config{
		Rooms:    64,
		Mix:      bas.KnownPlatforms(),
		Secure:   evenSecure(64),
		Scenario: bas.ScenarioConfig{Seed: 1},
		Workers:  2,
		Monitor:  true,
	}
	cfg.HeadEnd.PollPeriod = time.Second
	cfg.TenantAPI = true
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b, err = New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one 64-room supervisory set-up allocates %d B in %d objects", got, after.Mallocs-before.Mallocs)
	if got > budget {
		t.Fatalf("one 64-room supervisory set-up allocates %d B, budget %d B", got, budget)
	}
}

// raceBuild reports whether the test binary was built with the race
// detector.
func raceBuild() bool {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
