package machine

import (
	"testing"
	"time"
)

func TestCostModelChargesVirtualTime(t *testing.T) {
	m := New(Config{Costs: Costs{Trap: time.Millisecond, Switch: 10 * time.Millisecond}})
	newToyKernel(m.Engine())
	defer m.Shutdown()
	mustSpawn(t, m.Engine(), "p", 7, func(ctx *Context) {
		for i := 0; i < 5; i++ {
			yield(ctx)
		}
	})
	m.Run(time.Hour)
	stats := m.Engine().Stats()
	// 1 switch (first dispatch) + 6 traps (5 yields + exit).
	wantKernel := 10*time.Millisecond + 6*time.Millisecond
	if stats.KernelTime != wantKernel {
		t.Fatalf("kernel time = %v, want %v", stats.KernelTime, wantKernel)
	}
	if now := m.Clock().Now(); now.Duration() != wantKernel {
		t.Fatalf("clock = %v, want %v (only kernel costs advance time)", now, wantKernel)
	}
}

func TestZeroCostConfigIsFree(t *testing.T) {
	m := New(Config{Costs: Costs{Trap: 0, Switch: 0}})
	_ = m // Costs zero value maps to DefaultCosts via Config zero check...
	// Explicit zero Costs struct equals the zero value, so DefaultCosts
	// applies; document that behaviour.
	if m.Engine().costs != DefaultCosts() {
		t.Fatalf("zero Costs should fall back to defaults, got %+v", m.Engine().costs)
	}
}

func TestProcStateStrings(t *testing.T) {
	for s, want := range map[ProcState]string{
		StateNew: "new", StateReady: "ready", StateRunning: "running",
		StateBlocked: "blocked", StateDead: "dead",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if StopDeadline.String() != "deadline" || StopAllExited.String() != "all-exited" || StopIdle.String() != "idle-deadlock" {
		t.Error("StopReason strings wrong")
	}
}

func TestEngineProcsListing(t *testing.T) {
	m, _ := newTestBoard(t)
	mustSpawn(t, m.Engine(), "a", 7, func(ctx *Context) {})
	mustSpawn(t, m.Engine(), "b", 7, func(ctx *Context) { recv(ctx) })
	m.Run(time.Second)
	procs := m.Engine().Procs()
	if len(procs) != 2 || procs[0].Name() != "a" || procs[1].Name() != "b" {
		t.Fatalf("procs = %v", procs)
	}
	if procs[0].State() != StateDead || procs[1].State() != StateBlocked {
		t.Fatalf("states = %v, %v", procs[0].State(), procs[1].State())
	}
	if m.Engine().LiveCount() != 1 {
		t.Fatalf("live = %d, want 1", m.Engine().LiveCount())
	}
}

func TestRunAfterAllExitedIsStable(t *testing.T) {
	m, _ := newTestBoard(t)
	mustSpawn(t, m.Engine(), "brief", 7, func(ctx *Context) {})
	res := m.Run(time.Second)
	if res.Reason != StopAllExited {
		t.Fatalf("first run = %v", res.Reason)
	}
	res = m.Run(time.Second)
	if res.Reason != StopAllExited {
		t.Fatalf("second run = %v", res.Reason)
	}
}

func TestTraceLineString(t *testing.T) {
	l := TraceLine{At: Time(90 * time.Second), Tag: "bas", Text: "hello"}
	if l.String() != "[1m30s] bas: hello" {
		t.Fatalf("String = %q", l.String())
	}
}

func BenchmarkTrapRoundTrip(b *testing.B) {
	m := New(Config{})
	newToyKernel(m.Engine())
	defer m.Shutdown()
	count := 0
	p, err := m.Engine().Spawn("spinner", 7, func(ctx *Context) {
		for {
			yield(ctx)
			count++
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = p
	b.ResetTimer()
	target := count + b.N
	for count < target {
		m.Run(time.Millisecond)
	}
}
