package obs

import (
	"fmt"
	"sort"
)

// Outcome classifies how a mediated IPC round trip ended.
type Outcome uint8

const (
	// OutcomeOpen marks a span that has not ended yet.
	OutcomeOpen Outcome = iota
	// OutcomeDelivered means the message made it through mediation.
	OutcomeDelivered
	// OutcomeACMDenied means the MINIX access control matrix refused it.
	OutcomeACMDenied
	// OutcomeCapFault means an seL4 capability lookup failed or lacked
	// rights.
	OutcomeCapFault
	// OutcomeDACDenied means Linux discretionary access control refused it.
	OutcomeDACDenied
	// OutcomeAborted means the peer died or the operation failed for a
	// non-security reason (dead endpoint, bad descriptor, queue removed).
	OutcomeAborted
)

// String names the outcome for reports and trace exports.
func (o Outcome) String() string {
	switch o {
	case OutcomeOpen:
		return "open"
	case OutcomeDelivered:
		return "delivered"
	case OutcomeACMDenied:
		return "acm-denied"
	case OutcomeCapFault:
		return "cap-fault"
	case OutcomeDACDenied:
		return "dac-denied"
	case OutcomeAborted:
		return "aborted"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// MarshalText makes outcomes render as their names in JSON reports.
func (o Outcome) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// SpanID names one span; the zero SpanID is never issued, so kernels can
// use it as "no span open".
type SpanID uint64

// Span is one mediated IPC round trip as reports see it: virtual start/end
// instants, the source and destination names (in the recording kernel's
// namespace), a message label, and the mediation outcome.
type Span struct {
	ID      SpanID  `json:"id"`
	Src     string  `json:"src"`
	Dst     string  `json:"dst"`
	Label   string  `json:"label"`
	Start   Time    `json:"start_ns"`
	End     Time    `json:"end_ns"`
	Outcome Outcome `json:"outcome"`
}

// Duration is the span's virtual length.
func (s Span) Duration() Time { return s.End - s.Start }

// spanRec is how the tracer stores a span: the edge stays an id until
// Spans resolves it, so a record is 32 bytes with no pointers and the
// per-board ring costs the garbage collector nothing to scan.
type spanRec struct {
	ID      SpanID
	Edge    EdgeID
	Outcome Outcome
	Start   Time
	End     Time
}

// Tracer records IPC spans. Completed spans live in a bounded ring buffer
// (oldest dropped first); open spans are bounded by the number of blocked
// processes, so they live in a slot slice with a freelist — this keeps
// Begin/End off the map path, which matters because every mediated round
// trip crosses them. The nil Tracer discards everything, so kernels can
// instrument unconditionally.
type Tracer struct {
	now     func() Time
	edges   *Edges
	cap     int
	open    []spanRec // slot storage; a slot is free when its ID is zero
	free    []int32
	done    []spanRec
	head    int
	nextID  SpanID
	total   int64
	dropped int64
	counts  [OutcomeAborted + 1]int64
}

// NewTracer creates a tracer whose spans name edges of edges; capacity <=
// 0 means 16384 completed spans.
func NewTracer(now func() Time, edges *Edges, capacity int) *Tracer {
	if now == nil {
		now = func() Time { return 0 }
	}
	if capacity <= 0 {
		capacity = 16384
	}
	// The ring grows lazily via append toward cap rather than preallocating:
	// a 64-board building would otherwise sit on cap·boards spans of mostly
	// idle memory. Growth copies are geometric (a handful per board
	// lifetime), so the IPC hot path still pays amortized O(1); once len
	// reaches cap the ring never reallocates.
	return &Tracer{now: now, edges: edges, cap: capacity}
}

// Span handles pack (sequence, slot) so End can index the open slot
// directly and still detect stale or double-End handles by sequence
// mismatch. Slots are bounded by concurrently open spans, so 24 bits is
// far more than any simulated board can block at once.
const spanSlotBits = 24

// Begin opens a span on edge starting now and returns its handle.
func (t *Tracer) Begin(edge EdgeID) SpanID {
	if t == nil {
		return 0
	}
	t.nextID++
	var slot int
	if n := len(t.free); n > 0 {
		slot = int(t.free[n-1])
		t.free = t.free[:n-1]
	} else {
		slot = len(t.open)
		t.open = append(t.open, spanRec{})
	}
	t.open[slot] = spanRec{ID: t.nextID, Edge: edge, Start: t.now()}
	return t.nextID<<spanSlotBits | SpanID(slot+1)
}

// End closes the span, stamping the end instant and outcome, and returns
// its virtual duration. Unknown or zero IDs (including double-End) report
// ok=false and change nothing.
func (t *Tracer) End(id SpanID, outcome Outcome) (Time, bool) {
	if t == nil || id == 0 {
		return 0, false
	}
	slot := int(id&(1<<spanSlotBits-1)) - 1
	if slot < 0 || slot >= len(t.open) || t.open[slot].ID != id>>spanSlotBits {
		return 0, false
	}
	s := t.open[slot]
	t.open[slot] = spanRec{}
	t.free = append(t.free, int32(slot))
	s.End = t.now()
	s.Outcome = outcome
	t.push(s)
	return s.End - s.Start, true
}

// Emit records a complete zero-length span on edge at the current instant
// — the shape of a denial, which consumes no virtual time.
func (t *Tracer) Emit(edge EdgeID, outcome Outcome) {
	if t == nil {
		return
	}
	t.nextID++
	now := t.now()
	t.push(spanRec{ID: t.nextID, Edge: edge, Start: now, End: now, Outcome: outcome})
}

// push books a completed span into the ring.
func (t *Tracer) push(s spanRec) {
	t.total++
	if int(s.Outcome) < len(t.counts) {
		t.counts[s.Outcome]++
	}
	if len(t.done) < t.cap {
		t.done = append(t.done, s)
		return
	}
	t.done[t.head] = s
	t.head = (t.head + 1) % t.cap
	t.dropped++
}

// Spans returns the retained completed spans sorted by (Start, ID) for
// deterministic export.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, len(t.done))
	for _, r := range t.done[t.head:] {
		out = append(out, t.span(r))
	}
	for _, r := range t.done[:t.head] {
		out = append(out, t.span(r))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// span resolves a stored record's edge into report form.
func (t *Tracer) span(r spanRec) Span {
	e := t.edges.Edge(r.Edge)
	return Span{ID: r.ID, Src: e.Src, Dst: e.Dst, Label: e.Label, Start: r.Start, End: r.End, Outcome: r.Outcome}
}

// OpenCount reports how many spans are still open (processes mid-round-trip).
func (t *Tracer) OpenCount() int {
	if t == nil {
		return 0
	}
	return len(t.open) - len(t.free)
}

// Completed reports the lifetime number of completed spans, including ones
// the ring has since dropped.
func (t *Tracer) Completed() int64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Dropped reports how many completed spans the ring evicted.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// OutcomeCount is one (outcome, lifetime count) row.
type OutcomeCount struct {
	Outcome Outcome `json:"outcome"`
	Count   int64   `json:"count"`
}

// ByOutcome returns lifetime completion counts per outcome, skipping
// outcomes that never occurred, in outcome order.
func (t *Tracer) ByOutcome() []OutcomeCount {
	if t == nil {
		return nil
	}
	var out []OutcomeCount
	for o, n := range t.counts {
		if n > 0 {
			out = append(out, OutcomeCount{Outcome: Outcome(o), Count: n})
		}
	}
	return out
}
