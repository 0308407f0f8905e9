package bas_test

import (
	"testing"
	"time"

	"mkbas/internal/bas"
	"mkbas/internal/building"
)

// TestImageTableBoundedByShapes: the image table is keyed by deploy shape,
// so once one supervisory building (64 rooms over all five platforms,
// every even room secure, monitor and tenant API on) has booted, further
// identical buildings add no image. A key that took a per-board value
// would grow the table, and its live heap, once per building.
func TestImageTableBoundedByShapes(t *testing.T) {
	secure := make([]bool, 64)
	for i := range secure {
		secure[i] = i%2 == 0
	}
	cfg := building.Config{
		Rooms:     len(secure),
		Mix:       bas.KnownPlatforms(),
		Secure:    secure,
		Scenario:  bas.ScenarioConfig{Seed: 1},
		Workers:   2,
		Monitor:   true,
		TenantAPI: true,
	}
	cfg.HeadEnd.PollPeriod = time.Second
	boot := func() {
		t.Helper()
		b, err := building.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b.Close()
	}
	boot()
	shapes := bas.ImageCount()
	for i := 0; i < 3; i++ {
		boot()
	}
	if got := bas.ImageCount(); got != shapes {
		t.Fatalf("image table grew from %d to %d entries over three more identical buildings", shapes, got)
	}
}
