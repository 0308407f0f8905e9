package machine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mkbas/internal/obs"
)

// refTrace is the oracle for the block-encoded console: the ring of
// TraceLine values it replaced.
type refTrace struct {
	clock *Clock
	cap   int
	lines []TraceLine
	head  int
}

func (t *refTrace) Log(tag, text string) {
	line := TraceLine{At: t.clock.Now(), Tag: tag, Text: text}
	if len(t.lines) == t.cap {
		t.lines[t.head] = line
		t.head = (t.head + 1) % t.cap
		return
	}
	t.lines = append(t.lines, line)
}

func (t *refTrace) Lines() []TraceLine {
	return append(append([]TraceLine{}, t.lines[t.head:]...), t.lines[:t.head]...)
}

func (t *refTrace) Grep(substr string) []TraceLine {
	var out []TraceLine
	for _, l := range t.Lines() {
		if strings.Contains(l.Tag, substr) || strings.Contains(l.Text, substr) {
			out = append(out, l)
		}
	}
	return out
}

func (t *refTrace) String() string {
	var b strings.Builder
	for _, l := range t.Lines() {
		b.WriteString(l.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestTraceMatchesLineRing(t *testing.T) {
	// Random lines through the block-encoded console and the line ring it
	// replaced must read back alike through Lines, Grep and String: at tiny
	// caps and at the default one wrapping, with repeated instants, empty
	// tags and texts, multi-byte text and lines longer than a block.
	tags := []string{"", "minix", "minix-acm", "sel4", "linux-dac", "bas", "monitor"}
	words := []string{"", "spawn", "denied", "web", "→", "temp=21.50", "ep=7", "ACM"}
	for _, capacity := range []int{1, 2, 3, 7, 4096} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			clk := NewClock()
			got := NewTrace(clk, capacity)
			want := &refTrace{clock: clk, cap: capacity}
			steps := 3*capacity + 2000
			for step := 0; step < steps; step++ {
				switch rng.Intn(3) {
				case 0:
				case 1:
					clk.advance(clk.Now() + Time(rng.Intn(1000)))
				default:
					clk.advance(clk.Now() + Time(rng.Int63n(1<<40)))
				}
				tag := tags[rng.Intn(len(tags))]
				var text string
				switch rng.Intn(100) {
				case 0:
					text = strings.Repeat("x", obs.RingBlockSize+rng.Intn(3*obs.RingBlockSize))
				case 1:
					text = ""
				default:
					var b strings.Builder
					for k := rng.Intn(12); k >= 0; k-- {
						b.WriteString(words[rng.Intn(len(words))])
						b.WriteByte(' ')
					}
					text = b.String()
				}
				got.Log(tag, text)
				want.Log(tag, text)
				if capacity < 64 || step%997 == 0 || step == steps-1 {
					if g, w := got.Lines(), want.Lines(); !reflect.DeepEqual(g, w) {
						t.Fatalf("step %d: %d lines differ from the reference's %d", step, len(g), len(w))
					}
					for _, sub := range []string{"", "acm", "denied", "→", "x"} {
						if g, w := got.Grep(sub), want.Grep(sub); !reflect.DeepEqual(g, w) {
							t.Fatalf("step %d: Grep(%q) = %d lines, reference %d", step, sub, len(g), len(w))
						}
					}
					if g, w := got.String(), want.String(); g != w {
						t.Fatalf("step %d: String differs from the reference's", step)
					}
				}
			}
		})
	}
}

func TestTraceLogOnFullConsoleAllocatesNothing(t *testing.T) {
	// Kernels log every denial through Log; once the console is full and
	// its blocks recycle, a line must cost no allocation.
	clk := NewClock()
	tr := NewTrace(clk, 64)
	text := "ACM denied web -> heater mt3"
	for i := 0; i < 4*obs.RingBlockSize/len(text); i++ {
		tr.Log("minix-acm", text)
	}
	// AllocsPerRun rounds down, so each run logs enough lines to open many
	// blocks: a block not recycled shows as at least one allocation.
	if n := testing.AllocsPerRun(10, func() {
		for range 1000 {
			clk.advance(clk.Now() + 1000)
			tr.Log("minix-acm", text)
		}
	}); n != 0 {
		t.Fatalf("1000 lines on a full console allocate %.1f times, want 0", n)
	}
}

func TestTraceLogfMatchesSprintf(t *testing.T) {
	// Logf formats into the trace's scratch buffer instead of a string; the
	// console must read exactly as if each line went through Sprintf, even
	// when a short line follows a long one in the reused buffer.
	clk := NewClock()
	got, want := NewTrace(clk, 8), NewTrace(clk, 8)
	lines := []struct {
		format string
		args   []any
	}{
		{"spawn %s ep=%v acid=%d uid=%d", []any{"tempProc", PID(7), 103, 1000}},
		{"exit %s", []any{"x"}},
		{"CRASH %s panic=%v", []any{"webInterface", errors.New("boom")}},
		{"no verbs", nil},
		{"%d%%", []any{42}},
	}
	for i, l := range lines {
		clk.advance(clk.Now() + Time(i))
		got.Logf("minix", l.format, l.args...)
		want.Log("minix", fmt.Sprintf(l.format, l.args...))
	}
	if got.String() != want.String() {
		t.Fatalf("Logf console:\n%s\nSprintf console:\n%s", got.String(), want.String())
	}
}
