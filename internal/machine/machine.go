package machine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mkbas/internal/obs"
	"mkbas/internal/perf"
)

// Config parameterises a board.
type Config struct {
	// Costs is the kernel-entry/context-switch cost model; zero value means
	// DefaultCosts.
	Costs Costs
	// Seed drives the board's deterministic randomness source (sensor noise
	// etc.). The zero seed is replaced with 1 so that the zero Config is
	// usable.
	Seed int64
	// TraceCapacity bounds the console ring buffer; zero means 4096 lines.
	TraceCapacity int
}

// Machine is one virtual controller board: engine + clock + bus + trace
// console + deterministic randomness.
type Machine struct {
	clock  *Clock
	engine *Engine
	bus    *Bus
	trace  *Trace
	ipc    *IPCLog
	obs    *obs.Board
	seed   int64
	rng    *rand.Rand // built by the first Rand call
}

// New assembles a board from cfg.
func New(cfg Config) *Machine {
	costs := cfg.Costs
	if costs == (Costs{}) {
		costs = DefaultCosts()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	clock := NewClock()
	board := obs.NewBoard(func() obs.Time { return obs.Time(clock.Now()) })
	m := &Machine{
		clock:  clock,
		engine: NewEngine(clock, costs),
		bus:    NewBus(),
		trace:  NewTrace(clock, cfg.TraceCapacity),
		ipc:    newIPCLog(board.Edges()),
		obs:    board,
		seed:   seed,
	}
	m.engine.instrument(board.Metrics())
	return m
}

// SetProfiler binds the board's host-time accounting to a perf profiler:
// every subsequent Run/RunUntil books into "engine.run" and every dispatch
// into "engine.dispatch". Nil-safe; boards deployed without profiling never
// pay more than a nil check per scope.
func (m *Machine) SetProfiler(p *perf.Profiler) { m.engine.setProfiler(p) }

// Clock returns the board clock.
func (m *Machine) Clock() *Clock { return m.clock }

// Engine returns the scheduler engine.
func (m *Machine) Engine() *Engine { return m.engine }

// Bus returns the device bus.
func (m *Machine) Bus() *Bus { return m.bus }

// Trace returns the board trace console.
func (m *Machine) Trace() *Trace { return m.trace }

// IPC returns the board's aggregated IPC usage log.
func (m *Machine) IPC() *IPCLog { return m.ipc }

// Obs returns the board's observability layer: metrics registry, IPC span
// tracer, and security-event stream.
func (m *Machine) Obs() *obs.Board { return m.obs }

// Rand returns the board's deterministic randomness source, seeding it on
// the first call: seeding a source costs more than the rest of New, and
// only a plant with sensor noise draws from it.
func (m *Machine) Rand() *rand.Rand {
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(m.seed))
	}
	return m.rng
}

// Run drives the engine for a virtual duration from the current instant.
func (m *Machine) Run(d time.Duration) RunResult {
	return m.engine.Run(m.clock.Now().Add(d))
}

// RunUntil drives the engine to an absolute virtual instant. Lockstep
// orchestration (internal/building) uses it so every board converges on the
// same round deadline: Run(slice) would compound each board's deterministic
// overshoot into drift between boards, RunUntil cannot.
func (m *Machine) RunUntil(at Time) RunResult {
	return m.engine.Run(at)
}

// Shutdown unwinds every live process's coroutine.
func (m *Machine) Shutdown() { m.engine.Shutdown() }

// TraceLine is one timestamped console line.
type TraceLine struct {
	At   Time
	Tag  string
	Text string
}

// String renders the line as "[12.5s] tag: text".
func (l TraceLine) String() string {
	return fmt.Sprintf("[%s] %s: %s", l.At, l.Tag, l.Text)
}

// Trace is a bounded, timestamped console log. Kernels and applications use
// it for the experiment traces printed by bas control; tests assert on it.
// Lines are block-encoded into an obs.BlockRing that keeps the newest cap
// of them, each as uvarint(At − the previous line's At), then the tag and
// the text, each as uvarint(length) and its bytes. A line costs its text
// plus a few bytes and no heap object of its own; Lines, Grep and String
// decode on read.
type Trace struct {
	clock  *Clock
	ring   *obs.BlockRing
	lastAt Time // the newest line's instant, the base of the next delta
}

// NewTrace creates a trace console; capacity <= 0 means 4096 lines. The
// ring allocates its first block with the first line.
func NewTrace(clock *Clock, capacity int) *Trace {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Trace{clock: clock, ring: obs.NewBlockRing(capacity)}
}

// Logf appends a formatted line under tag. When the buffer is full the
// oldest line is dropped.
func (t *Trace) Logf(tag, format string, args ...any) {
	t.Log(tag, fmt.Sprintf(format, args...))
}

// Log appends text verbatim under tag, with no formatting. Kernels use it
// on repeated paths (denials, forwarded process traces) where the text is
// already built; once the ring is full a line allocates nothing.
func (t *Trace) Log(tag, text string) {
	at := t.clock.Now()
	b, first := t.ring.Grow(3*binary.MaxVarintLen64 + len(tag) + len(text))
	prev := t.lastAt
	if first {
		prev = 0
	}
	b = binary.AppendUvarint(b, uint64(at-prev))
	b = binary.AppendUvarint(b, uint64(len(tag)))
	b = append(b, tag...)
	b = binary.AppendUvarint(b, uint64(len(text)))
	b = append(b, text...)
	t.ring.Commit(b)
	t.lastAt = at
}

// each calls fn on every retained line, oldest first.
func (t *Trace) each(fn func(TraceLine)) {
	for b, skip := range t.ring.Blocks() {
		var at Time
		for i := 0; len(b) > 0; i++ {
			d, n := binary.Uvarint(b)
			at += Time(d)
			var tag, text []byte
			tag, b = traceField(b[n:])
			text, b = traceField(b)
			if i >= skip {
				fn(TraceLine{At: at, Tag: string(tag), Text: string(text)})
			}
		}
	}
}

// traceField splits a uvarint-length-prefixed field off the front of b.
func traceField(b []byte) (field, rest []byte) {
	l, n := binary.Uvarint(b)
	end := n + int(l)
	return b[n:end], b[end:]
}

// Lines returns a copy of the buffered lines, oldest first.
func (t *Trace) Lines() []TraceLine {
	out := make([]TraceLine, 0, t.ring.Len())
	t.each(func(l TraceLine) { out = append(out, l) })
	return out
}

// Grep returns the lines whose tag or text contains substr, oldest first.
func (t *Trace) Grep(substr string) []TraceLine {
	var out []TraceLine
	t.each(func(l TraceLine) {
		if strings.Contains(l.Tag, substr) || strings.Contains(l.Text, substr) {
			out = append(out, l)
		}
	})
	return out
}

// String renders the whole trace, one line per entry.
func (t *Trace) String() string {
	var b strings.Builder
	t.each(func(l TraceLine) {
		b.WriteString(l.String())
		b.WriteByte('\n')
	})
	return b.String()
}
