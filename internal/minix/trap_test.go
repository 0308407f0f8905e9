package minix

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"mkbas/internal/machine"
)

// boardState renders what an unknown trap must leave alone on the board:
// security events, spans, IPC usage, the console, and every metric except
// the engine's own accounting, which counts every trap.
func boardState(m *machine.Machine) string {
	b := m.Obs()
	var s strings.Builder
	fmt.Fprintf(&s, "events=%d spans=%d open=%d usages=%v lines=%d\n",
		b.Events().Total(), b.Tracer().Completed(), b.Tracer().OpenCount(), m.IPC().Usages(), len(m.Trace().Lines()))
	for _, line := range strings.Split(b.Metrics().PromText(), "\n") {
		if !strings.Contains(line, "machine_") {
			s.WriteString(line + "\n")
		}
	}
	return s.String()
}

// TestUnknownTrapsAnswered drives the trap numbers just outside the table —
// 0, one past the last, and the largest — from a live process: each is
// answered with an error in the frame, changes no kernel, board or process
// state, and leaves the caller running.
func TestUnknownTrapsAnswered(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	state := func() string {
		var s string
		for _, e := range k.slots {
			if e != nil {
				s += fmt.Sprintf("%+v\n", *e)
			}
		}
		return s + boardState(m)
	}
	var got []string
	var before, after string
	resumed := false
	k.RegisterImage(Image{Name: "b", Priority: 7, Body: func(api *API) {
		api.Receive(EndpointAny)
	}})
	k.RegisterImage(Image{Name: "a", Priority: 8, Body: func(api *API) {
		before = state()
		for _, nr := range []uint32{0, trapLimit, math.MaxUint32} {
			api.ctx.Trap(nr)
			got = append(got, fmt.Sprint(api.f.Err))
		}
		after = state()
		if _, err := api.Lookup("b"); err != nil {
			t.Errorf("lookup after unknown traps: %v", err)
		}
		resumed = true
	}})
	spawnOrFatal(t, k, "b", acidB)
	spawnOrFatal(t, k, "a", acidA)
	m.Run(time.Second)
	want := []string{"minix: unknown trap 0", fmt.Sprintf("minix: unknown trap %d", trapLimit), "minix: unknown trap 4294967295"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("errors = %q, want %q", got, want)
	}
	if before != after {
		t.Fatalf("unknown traps changed state:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if !resumed {
		t.Fatal("caller did not keep running after unknown traps")
	}
}
