package machine

import (
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
	rng    *rand.Rand
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
		ipc:    NewIPCLog(),
		obs:    board,
		rng:    rand.New(rand.NewSource(seed)),
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

// Rand returns the board's deterministic randomness source.
func (m *Machine) Rand() *rand.Rand { return m.rng }

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
// it for the experiment traces printed by cmd/bascontrol; tests assert on it.
// Once full it is a circular buffer: head indexes the oldest line, so an
// append overwrites in place instead of shifting the whole backlog.
type Trace struct {
	clock *Clock
	cap   int
	lines []TraceLine
	head  int
}

// NewTrace creates a trace console; capacity <= 0 means 4096 lines.
func NewTrace(clock *Clock, capacity int) *Trace {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Trace{clock: clock, cap: capacity}
}

// Logf appends a formatted line under tag. When the buffer is full the
// oldest line is dropped.
func (t *Trace) Logf(tag, format string, args ...any) {
	t.Log(tag, fmt.Sprintf(format, args...))
}

// Log appends text verbatim under tag, with no formatting. Kernels use it
// on repeated paths (denials, forwarded process traces) where the text is
// already built, so a line costs no allocation beyond the ring's growth.
func (t *Trace) Log(tag, text string) {
	line := TraceLine{At: t.clock.Now(), Tag: tag, Text: text}
	if len(t.lines) == t.cap {
		t.lines[t.head] = line
		t.head = (t.head + 1) % t.cap
		return
	}
	t.lines = append(t.lines, line)
}

// each calls fn on every buffered line, oldest first.
func (t *Trace) each(fn func(TraceLine)) {
	for _, l := range t.lines[t.head:] {
		fn(l)
	}
	for _, l := range t.lines[:t.head] {
		fn(l)
	}
}

// Lines returns a copy of the buffered lines, oldest first.
func (t *Trace) Lines() []TraceLine {
	out := make([]TraceLine, 0, len(t.lines))
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
