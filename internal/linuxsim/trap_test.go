package linuxsim

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
// 0, one past the last, and the largest — from a live process: each is
// answered with an error in the frame, changes no kernel, board or process
// state, and leaves the caller running.
func TestUnknownTrapsAnswered(t *testing.T) {
	m, k := newBoard(t)
	state := func() string {
		var s string
		pids := make([]int, 0, len(k.byUnix))
		for pid := range k.byUnix {
			pids = append(pids, pid)
		}
		sort.Ints(pids)
		for _, pid := range pids {
			s += fmt.Sprintf("%+v\n", *k.byUnix[pid])
		}
		return s + boardState(m)
	}
	var got []string
	var before, after string
	resumed := false
	k.RegisterImage(Image{Name: "reader", UID: 1000, Priority: 7, Body: func(api *API) {
		fd, err := api.MQOpen("/q", MQOpenFlags{Create: true, Read: true, Write: true, Mode: 0o600})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		api.MQReceive(fd)
	}})
	k.RegisterImage(Image{Name: "caller", UID: 1000, Priority: 8, Body: func(api *API) {
		before = state()
		for _, nr := range []uint32{0, trapLimit, math.MaxUint32} {
			api.ctx.Trap(nr)
			got = append(got, fmt.Sprint(api.f.Err))
		}
		after = state()
		if api.GetUID() != 1000 {
			t.Error("getuid after unknown traps")
		}
		resumed = true
	}})
	for _, img := range []string{"reader", "caller"} {
		if _, err := k.SpawnImage(img); err != nil {
			t.Fatal(err)
		}
	}
	m.Run(time.Second)
	want := []string{"linuxsim: unknown trap 0", fmt.Sprintf("linuxsim: unknown trap %d", trapLimit), "linuxsim: unknown trap 4294967295"}
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
