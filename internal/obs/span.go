package obs

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"
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

// spanRec is a span in the tracer's own form: the edge stays an id until
// Spans resolves it, so an open slot is 32 bytes with no pointers.
type spanRec struct {
	ID      SpanID
	Edge    EdgeID
	Outcome Outcome
	Start   Time
	End     Time
}

// Tracer records IPC spans. Open spans are bounded by the number of blocked
// processes, so they live in a slot slice with a freelist — this keeps
// Begin/End off the map path, which matters because every mediated round
// trip crosses them. Completed spans are block-encoded into a BlockRing
// that keeps the newest cap of them (see appendSpan for the record), so a
// full board history costs a few bytes a span and nothing to scan. The nil
// Tracer discards everything, so kernels can instrument unconditionally.
type Tracer struct {
	now    func() Time
	edges  *Edges
	open   []spanRec // slot storage; a slot is free when its ID is zero
	free   []int32
	done   *BlockRing
	last   spanRec // the newest completed span, the base of the next delta
	nextID SpanID
	total  int64
	counts [OutcomeAborted + 1]int64
}

// NewTracer creates a tracer whose spans name edges of edges; capacity <=
// 0 means 16384 completed spans. The ring allocates its first block with
// the first completed span.
func NewTracer(now func() Time, edges *Edges, capacity int) *Tracer {
	if now == nil {
		now = func() Time { return 0 }
	}
	if capacity <= 0 {
		capacity = 16384
	}
	return &Tracer{now: now, edges: edges, done: NewBlockRing(capacity)}
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

// Finish ends the open span *id, if any, and clears *id; a delivered
// span's duration is observed on h. It is how a kernel closes a process's
// round-trip or wait span.
func (t *Tracer) Finish(id *SpanID, outcome Outcome, h *Histogram) {
	if *id == 0 {
		return
	}
	d, ok := t.End(*id, outcome)
	*id = 0
	if ok && outcome == OutcomeDelivered {
		h.Observe(time.Duration(d))
	}
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
	b, first := t.done.Grow(maxSpanRecLen)
	prev := t.last
	if first {
		prev = spanRec{}
	}
	t.done.Commit(appendSpan(b, s, prev))
	t.last = s
}

// maxSpanRecLen bounds one encoded span: four varints and an escaped
// outcome byte.
const maxSpanRecLen = 4*binary.MaxVarintLen64 + 1

// spanOutcomeEscape in the outcome bits means the outcome did not fit in
// them and follows as a byte of its own.
const spanOutcomeEscape = 1<<3 - 1

// appendSpan appends s encoded against prev, the span completed before it
// in the same block (the zero spanRec for a block's first span):
// zigzag(ID − prev.ID), uvarint(Edge<<3 | Outcome), zigzag(End − prev.End)
// and uvarint(End − Start). Completion order makes the ID and End deltas
// small and mediated round trips are short, so a span is typically 5–9
// bytes.
func appendSpan(b []byte, s, prev spanRec) []byte {
	b = binary.AppendVarint(b, int64(s.ID-prev.ID))
	o := min(s.Outcome, spanOutcomeEscape)
	b = binary.AppendUvarint(b, uint64(s.Edge)<<3|uint64(o))
	if o == spanOutcomeEscape {
		b = append(b, byte(s.Outcome))
	}
	b = binary.AppendVarint(b, int64(s.End-prev.End))
	return binary.AppendUvarint(b, uint64(s.End-s.Start))
}

// decodeSpan reads the span appendSpan encoded against prev from the front
// of b and returns it with the rest of b.
func decodeSpan(b []byte, prev spanRec) (spanRec, []byte) {
	var s spanRec
	id, n := binary.Varint(b)
	b = b[n:]
	s.ID = prev.ID + SpanID(id)
	eo, n := binary.Uvarint(b)
	b = b[n:]
	s.Edge, s.Outcome = EdgeID(eo>>3), Outcome(eo&spanOutcomeEscape)
	if s.Outcome == spanOutcomeEscape {
		s.Outcome, b = Outcome(b[0]), b[1:]
	}
	end, n := binary.Varint(b)
	b = b[n:]
	s.End = prev.End + Time(end)
	d, n := binary.Uvarint(b)
	s.Start = s.End - Time(d)
	return s, b[n:]
}

// Spans returns the retained completed spans sorted by (Start, ID) for
// deterministic export.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, t.done.Len())
	for b, skip := range t.done.Blocks() {
		var r spanRec
		for i := 0; len(b) > 0; i++ {
			r, b = decodeSpan(b, r)
			if i >= skip {
				out = append(out, t.span(r))
			}
		}
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
	return t.done.Dropped()
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
