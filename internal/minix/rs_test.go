package minix

import (
	"testing"
	"time"

	"mkbas/internal/obs"
)

// crashyImage registers a Restart-flagged driver that sleeps forever; tests
// kill it through the fault-injection hook.
func crashyImage() Image {
	return Image{
		Name:     "crashy",
		Priority: 5,
		Restart:  true,
		Body: func(api *API) {
			for {
				api.Sleep(time.Hour)
			}
		},
	}
}

// countEvents tallies recovery events by kind for one destination image.
func countEvents(events []obs.SecurityEvent, kind obs.EventKind, dst string) int {
	n := 0
	for _, e := range events {
		if e.Kind == kind && e.Mechanism == obs.MechRecovery && e.Dst == dst {
			n++
		}
	}
	return n
}

// TestRSRestartEmitsEventAndPacesBackoff pins the reincarnation contract: a
// killed Restart-flagged driver is respawned after the exponential backoff,
// and every restart emits an obs recovery event.
func TestRSRestartEmitsEventAndPacesBackoff(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	k.RegisterImage(crashyImage())
	spawnOrFatal(t, k, "crashy", acidA)
	m.Run(time.Second)

	if err := k.CrashProcess("crashy"); err != nil {
		t.Fatalf("CrashProcess: %v", err)
	}
	// The first respawn waits rsBackoffBase; well before that the image must
	// still be down.
	m.Run(rsBackoffBase / 2)
	if _, err := k.EndpointOf("crashy"); err == nil {
		t.Fatal("crashy respawned before the backoff elapsed")
	}
	m.Run(rsBackoffBase)
	if _, err := k.EndpointOf("crashy"); err != nil {
		t.Fatalf("crashy not respawned after backoff: %v", err)
	}
	if got := k.RS().Restarts("crashy"); got != 1 {
		t.Errorf("Restarts = %d, want 1", got)
	}
	if got := countEvents(m.Obs().Events().Events(), obs.EventRestart, "crashy"); got != 1 {
		t.Errorf("restart events = %d, want 1", got)
	}
}

// TestRSGiveUpAfterBudgetExhausted pins the crash-loop cap: after
// maxRestartsPerImage rapid crashes RS stops respawning and emits a give-up
// event instead.
func TestRSGiveUpAfterBudgetExhausted(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	k.RegisterImage(crashyImage())
	spawnOrFatal(t, k, "crashy", acidA)
	m.Run(time.Second)

	for i := 0; i < maxRestartsPerImage+1; i++ {
		if err := k.CrashProcess("crashy"); err != nil {
			t.Fatalf("crash %d: %v", i, err)
		}
		// Cover the worst-case capped backoff so each respawn lands before
		// the next kill.
		m.Run(rsBackoffMax + time.Second)
	}
	if got := k.RS().GiveUps(); got != 1 {
		t.Errorf("GiveUps = %d, want 1", got)
	}
	if got := k.RS().TotalRestarts(); got != maxRestartsPerImage {
		t.Errorf("TotalRestarts = %d, want %d", got, maxRestartsPerImage)
	}
	if _, err := k.EndpointOf("crashy"); err == nil {
		t.Error("crashy alive after give-up")
	}
	events := m.Obs().Events().Events()
	if got := countEvents(events, obs.EventRestartGiveUp, "crashy"); got != 1 {
		t.Errorf("give-up events = %d, want 1", got)
	}
	if got := countEvents(events, obs.EventRestart, "crashy"); got != maxRestartsPerImage {
		t.Errorf("restart events = %d, want %d", got, maxRestartsPerImage)
	}
}

// TestRSBudgetDecaysAfterStablePeriod pins the budget decay: a driver that
// crashed long ago gets a fresh restart budget, so the cap bounds crash
// loops, not lifetime restarts.
func TestRSBudgetDecaysAfterStablePeriod(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	k.RegisterImage(crashyImage())
	spawnOrFatal(t, k, "crashy", acidA)
	m.Run(time.Second)

	// Burn most of the budget with a rapid crash loop.
	for i := 0; i < maxRestartsPerImage-1; i++ {
		if err := k.CrashProcess("crashy"); err != nil {
			t.Fatalf("crash %d: %v", i, err)
		}
		m.Run(rsBackoffMax + time.Second)
	}
	if got := k.RS().Restarts("crashy"); got != maxRestartsPerImage-1 {
		t.Fatalf("Restarts = %d, want %d", got, maxRestartsPerImage-1)
	}

	// A sustained stable period forgives the past crashes.
	m.Run(rsStablePeriod + time.Minute)
	if err := k.CrashProcess("crashy"); err != nil {
		t.Fatalf("post-stable crash: %v", err)
	}
	m.Run(rsBackoffMax + time.Second)
	if got := k.RS().Restarts("crashy"); got != 1 {
		t.Errorf("Restarts after stable period = %d, want 1 (budget decayed)", got)
	}
	if got := k.RS().GiveUps(); got != 0 {
		t.Errorf("GiveUps = %d, want 0", got)
	}
	if _, err := k.EndpointOf("crashy"); err != nil {
		t.Errorf("crashy not respawned after decayed budget: %v", err)
	}
}

// TestRSIgnoresVoluntaryExit checks that a Restart-flagged driver that
// calls Exit is not reincarnated: only a crash or a kill outside PM's
// audited kill counts as a fault.
func TestRSIgnoresVoluntaryExit(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	img := crashyImage()
	img.Body = func(api *API) {
		api.Sleep(time.Second)
		api.Exit()
	}
	k.RegisterImage(img)
	spawnOrFatal(t, k, "crashy", acidA)
	m.Run(time.Minute)
	if _, err := k.EndpointOf("crashy"); err == nil {
		t.Fatal("a driver that exited was respawned")
	}
	if got := k.RS().Restarts("crashy"); got != 0 {
		t.Fatalf("Restarts = %d, want 0", got)
	}
}
