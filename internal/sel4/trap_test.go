package sel4

import (
	"fmt"
	"math"
	"sort"
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
// 0, one past the last, and the largest — from a live thread: each is
// answered with an error in the frame, changes no kernel, board or thread
// state, and leaves the caller running.
func TestUnknownTrapsAnswered(t *testing.T) {
	m, k := newBoard(t)
	state := func() string {
		var s string
		ids := make([]ObjID, 0, len(k.tcbs))
		for id := range k.tcbs {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			s += fmt.Sprintf("%+v\n", *k.tcbs[id])
		}
		return s + boardState(m)
	}
	ep := k.CreateEndpoint("chan")
	var got []string
	var before, after string
	resumed := false
	server := k.CreateThread("server", 7, func(api *API) { api.Recv(1) })
	caller := k.CreateThread("caller", 8, func(api *API) {
		before = state()
		for _, nr := range []uint32{0, trapLimit, math.MaxUint32} {
			api.ctx.Trap(nr)
			got = append(got, fmt.Sprint(api.f.Err))
		}
		after = state()
		if err := api.Send(1, Msg{Label: 1}); err != nil {
			t.Errorf("send after unknown traps: %v", err)
		}
		resumed = true
	})
	mustInstall(t, k, server, 1, EndpointCap(ep, CapRead, 0))
	mustInstall(t, k, caller, 1, EndpointCap(ep, CapWrite, 0))
	mustStart(t, k, server)
	mustStart(t, k, caller)
	m.Run(time.Second)
	want := []string{"sel4: unknown trap 0", fmt.Sprintf("sel4: unknown trap %d", trapLimit), "sel4: unknown trap 4294967295"}
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
