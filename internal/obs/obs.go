// Package obs is the board-wide observability layer: a metrics registry
// (counters, gauges, virtual-time histograms), an IPC span tracer, and a
// unified security-event stream shared by all three kernel personalities.
//
// Everything in this package is deterministic by construction: timestamps
// come from the board's virtual clock (never the wall clock), reports sort
// every map-derived collection, and the package allocates no goroutines.
// Two runs of the same scenario at the same seed therefore produce
// byte-identical reports — the property the bas mon golden check enforces.
//
// The package deliberately does not import internal/machine: the machine
// package hosts a Board on every Machine, so the dependency points the
// other way. Virtual instants cross the boundary as obs.Time (nanoseconds
// since boot, the same representation machine.Time uses).
package obs

import "time"

// Time is a virtual instant: nanoseconds since board boot. It mirrors
// machine.Time without importing it.
type Time int64

// String renders the instant as a duration since boot ("12.5s").
func (t Time) String() string { return time.Duration(t).String() }

// Board bundles the three observability facilities for one virtual
// controller board, plus the IPC edge table the tracer, the board's IPC log
// and the policy monitor share. All methods on a Board and its facilities must be
// called from the engine goroutine (or while the engine is parked), the
// same discipline machine.Trace follows.
type Board struct {
	now     func() Time
	edges   *Edges
	metrics *Registry
	tracer  *Tracer
	events  *EventLog
}

// NewBoard creates a board observatory reading virtual time from now.
// A nil now pins the clock to boot, which keeps unit tests terse.
func NewBoard(now func() Time) *Board {
	if now == nil {
		now = func() Time { return 0 }
	}
	edges := NewEdges()
	return &Board{
		now:     now,
		edges:   edges,
		metrics: NewRegistry(),
		tracer:  NewTracer(now, edges, 0),
		events:  NewEventLog(now, 0),
	}
}

// Now reports the current virtual instant.
func (b *Board) Now() Time { return b.now() }

// Edges returns the board's IPC edge intern table.
func (b *Board) Edges() *Edges { return b.edges }

// Metrics returns the board's metrics registry.
func (b *Board) Metrics() *Registry { return b.metrics }

// Tracer returns the board's IPC span tracer.
func (b *Board) Tracer() *Tracer { return b.tracer }

// Events returns the board's security-event stream.
func (b *Board) Events() *EventLog { return b.events }
