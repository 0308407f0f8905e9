// Package perf is the host-side performance profiler: it attributes real
// (wall-clock) time and heap-allocation counts to named phases of a campaign
// — board stepping, bus flush barriers, head-end polling, policy-monitor
// observation, shard deploy/run/merge — so "where does the simulator spend
// its time" is answered by measurement, not guesswork.
//
// perf is deliberately the mirror image of internal/obs. obs reads the
// *virtual* clock and is part of the determinism contract: its reports are a
// pure function of the simulation. perf reads the *host* clock and is
// explicitly outside that contract: timings vary run to run and worker count
// to worker count. What perf does guarantee is that the *shape* of its
// output — the phase set, the phase ordering, and the per-phase entry counts
// — is a deterministic function of the simulation alone, because every phase
// entry corresponds to a simulation event (a round, a shard, a dispatch)
// whose count the virtual clock fixes. Snapshot(false) suppresses the
// host-dependent columns, leaving only that deterministic skeleton, which is
// what the check.sh goldens compare across worker counts.
//
// Hot-path discipline: a Phase resolves once (like an obs.Counter) and a
// Begin/End scope pair costs two time.Now calls and three atomic adds. The
// nil Profiler, the nil Phase, and the nil Track all discard, so
// instrumented code never branches on "is profiling on" — it just calls.
package perf

import (
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// heapAllocsMetric is the runtime/metrics cumulative count of heap
// allocations. Reading it is cheap (no stop-the-world), which is what makes
// per-scope allocation deltas affordable.
const heapAllocsMetric = "/gc/heap/allocs:objects"

// allocsSupported reports whether the runtime exposes the allocation
// counter; resolved once.
var allocsSupported = func() bool {
	var s [1]metrics.Sample
	s[0].Name = heapAllocsMetric
	metrics.Read(s[:])
	return s[0].Value.Kind() == metrics.KindUint64
}()

// heapAllocs reads the cumulative heap-allocation count.
func heapAllocs() uint64 {
	var s [1]metrics.Sample
	s[0].Name = heapAllocsMetric
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// Options configures a Profiler.
type Options struct {
	// Timeline retains one event per tracked scope for the Chrome host-trace
	// export. Off by default: a 64-room building emits ~10^5 board-step
	// scopes per campaign, and the aggregate table does not need them.
	Timeline bool
}

// Profiler collects phase statistics for one campaign. All methods are safe
// for concurrent use; scope accumulation is atomic so worker goroutines
// share phases without locks.
type Profiler struct {
	mu       sync.Mutex
	phases   map[string]*Phase
	tracks   []*Track
	gauges   map[string]int64
	timeline bool
	start    time.Time
}

// New creates a profiler. The host-time origin for timeline exports is the
// moment of creation.
func New(opts Options) *Profiler {
	return &Profiler{
		phases:   make(map[string]*Phase),
		gauges:   make(map[string]int64),
		timeline: opts.Timeline,
		start:    time.Now(),
	}
}

// Phase resolves (creating on first use) the named phase with allocation
// tracking: each scope books the heap-allocation delta between Begin and
// End. Under concurrent workers the counter is global, so allocations land
// on whichever phases were open when they happened — attribution is
// approximate in parallel regions, exact in serial ones. Nil-safe: a nil
// profiler returns the nil phase, which discards.
func (p *Profiler) Phase(name string) *Phase { return p.phase(name, allocsSupported) }

// HotPhase resolves the named phase without allocation tracking — for scopes
// entered millions of times (engine dispatch, monitor observation) where
// even a runtime/metrics read per entry would distort the measurement.
func (p *Profiler) HotPhase(name string) *Phase { return p.phase(name, false) }

func (p *Profiler) phase(name string, allocs bool) *Phase {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ph, ok := p.phases[name]
	if !ok {
		ph = &Phase{prof: p, name: name, allocs: allocs}
		p.phases[name] = ph
	}
	return ph
}

// Track creates a timeline track — one horizontal lane in the Chrome trace,
// conventionally one per worker goroutine. Events on a track must be
// recorded by a single goroutine (the track's owner); distinct tracks are
// independent. Nil-safe.
func (p *Profiler) Track(name string) *Track {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t := &Track{prof: p, name: name}
	p.tracks = append(p.tracks, t)
	return t
}

// TimelineEnabled reports whether tracked scopes retain timeline events —
// callers can skip building event labels when they would be discarded.
func (p *Profiler) TimelineEnabled() bool { return p != nil && p.timeline }

// SetGauge records a named point-in-time value (pool utilization, queue
// high-water marks). Gauges are host-dependent and only rendered when
// timings are included. Nil-safe.
func (p *Profiler) SetGauge(name string, v int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.gauges[name] = v
	p.mu.Unlock()
}

// Phase is one named accumulator. The zero-value fields are accessed
// atomically; a nil Phase discards scopes.
type Phase struct {
	prof   *Profiler
	name   string
	allocs bool

	count   int64
	totalNs int64
	maxNs   int64
	allocd  int64
}

// Begin opens an untracked scope (aggregate statistics only).
//
// Begin, BeginOn and End are a nil check the compiler inlines in front of an
// out-of-line body, so an unprofiled scope costs no call.
func (ph *Phase) Begin() Scope {
	if ph == nil {
		return Scope{}
	}
	return ph.begin(nil, "")
}

// BeginOn opens a scope that, when tr is non-nil and the profiler retains a
// timeline, also records one timeline event labelled label (the phase name
// when label is empty). The returned Scope must be closed with End on the
// same goroutine.
func (ph *Phase) BeginOn(tr *Track, label string) Scope {
	if ph == nil {
		return Scope{}
	}
	return ph.begin(tr, label)
}

func (ph *Phase) begin(tr *Track, label string) Scope {
	s := Scope{ph: ph, tr: tr, label: label, start: time.Now()}
	if ph.allocs {
		s.startAllocs = heapAllocs()
	}
	return s
}

// Scope is one open phase entry. The zero Scope (from a nil Phase) is inert.
type Scope struct {
	ph          *Phase
	tr          *Track
	label       string
	start       time.Time
	startAllocs uint64
}

// End closes the scope, folding its duration (and allocation delta) into the
// phase and, for tracked scopes, appending a timeline event.
func (s Scope) End() {
	if s.ph != nil {
		s.end()
	}
}

func (s *Scope) end() {
	d := time.Since(s.start)
	ns := int64(d)
	atomic.AddInt64(&s.ph.count, 1)
	atomic.AddInt64(&s.ph.totalNs, ns)
	for {
		old := atomic.LoadInt64(&s.ph.maxNs)
		if ns <= old || atomic.CompareAndSwapInt64(&s.ph.maxNs, old, ns) {
			break
		}
	}
	if s.ph.allocs {
		if delta := heapAllocs() - s.startAllocs; delta > 0 {
			atomic.AddInt64(&s.ph.allocd, int64(delta))
		}
	}
	if s.tr != nil && s.ph.prof.timeline {
		label := s.label
		if label == "" {
			label = s.ph.name
		}
		s.tr.events = append(s.tr.events, timelineEvent{
			name:    label,
			phase:   s.ph.name,
			startNs: int64(s.start.Sub(s.ph.prof.start)),
			durNs:   ns,
		})
	}
}

// Track is one timeline lane. Events are appended by the owning goroutine
// only; the slice is read at export time, after the owner has quiesced.
type Track struct {
	prof   *Profiler
	name   string
	events []timelineEvent
}

// timelineEvent is one retained scope on a track.
type timelineEvent struct {
	name    string
	phase   string
	startNs int64
	durNs   int64
}

// PhaseSnap is one exported phase row.
type PhaseSnap struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	// TotalNs, AvgNs, MaxNs, and Allocs are host-dependent; Snapshot(false)
	// zeroes them so goldens compare only the deterministic skeleton.
	TotalNs int64 `json:"total_ns"`
	AvgNs   int64 `json:"avg_ns"`
	MaxNs   int64 `json:"max_ns"`
	Allocs  int64 `json:"allocs"`
}

// GaugeSnap is one exported gauge row.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is the exportable profile: phases sorted by name (never by time,
// so ordering is worker-count-independent), gauges sorted by name.
type Snapshot struct {
	// Timings records whether host-dependent columns are populated.
	Timings bool `json:"timings"`
	// WallNs is host time since the profiler was created (0 without timings).
	WallNs int64 `json:"wall_ns"`
	// Phases is the per-phase table.
	Phases []PhaseSnap `json:"phases"`
	// Gauges is only populated with timings: gauge names may encode
	// host-execution shape (per-worker rows), which must not leak into the
	// deterministic skeleton.
	Gauges []GaugeSnap `json:"gauges,omitempty"`
}

// Snapshot exports the profile. includeTimings=false zeroes every
// host-dependent column and omits gauges, leaving output that is
// byte-deterministic across runs and worker counts.
func (p *Profiler) Snapshot(includeTimings bool) *Snapshot {
	snap := &Snapshot{Timings: includeTimings, Phases: []PhaseSnap{}}
	if p == nil {
		return snap
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for name, ph := range p.phases {
		row := PhaseSnap{Name: name, Count: atomic.LoadInt64(&ph.count)}
		if includeTimings {
			row.TotalNs = atomic.LoadInt64(&ph.totalNs)
			row.MaxNs = atomic.LoadInt64(&ph.maxNs)
			row.Allocs = atomic.LoadInt64(&ph.allocd)
			if row.Count > 0 {
				row.AvgNs = row.TotalNs / row.Count
			}
		}
		snap.Phases = append(snap.Phases, row)
	}
	sort.Slice(snap.Phases, func(i, j int) bool { return snap.Phases[i].Name < snap.Phases[j].Name })
	if includeTimings {
		snap.WallNs = int64(time.Since(p.start))
		for name, v := range p.gauges {
			snap.Gauges = append(snap.Gauges, GaugeSnap{Name: name, Value: v})
		}
		sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	}
	return snap
}

// JSON renders the snapshot as indented JSON with a trailing newline.
func (s *Snapshot) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ns renders a nanosecond column like time.Duration but with fixed
// formatting suitable for a table.
func ns(v int64) string {
	return time.Duration(v).Round(time.Microsecond).String()
}

// Text renders the snapshot as an aligned table, phases sorted by name.
// Without timings only the deterministic columns (phase, count) carry
// information; the timing columns print as zeros so the table shape is
// identical either way.
func (s *Snapshot) Text() string {
	var b []byte
	b = fmt.Appendf(b, "== perf: host-side phase profile (wall %s) ==\n", ns(s.WallNs))
	b = fmt.Appendf(b, "%-24s %10s %12s %12s %12s %12s\n", "phase", "count", "total", "avg", "max", "allocs")
	for _, ph := range s.Phases {
		b = fmt.Appendf(b, "%-24s %10d %12s %12s %12s %12d\n",
			ph.Name, ph.Count, ns(ph.TotalNs), ns(ph.AvgNs), ns(ph.MaxNs), ph.Allocs)
	}
	for _, g := range s.Gauges {
		b = fmt.Appendf(b, "gauge %-42s %12d\n", g.Name, g.Value)
	}
	return string(b)
}
