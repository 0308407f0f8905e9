package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refTracer is the oracle for the block-encoded tracer: the fixed-record
// ring it replaced, which kept each completed span as a 32-byte spanRec in
// a slice of cap slots. Its open-slot handling is the tracer's, so both
// issue the same handles.
type refTracer struct {
	now     func() Time
	edges   *Edges
	cap     int
	open    []spanRec
	free    []int32
	done    []spanRec
	head    int
	nextID  SpanID
	total   int64
	dropped int64
	counts  [OutcomeAborted + 1]int64
}

func (t *refTracer) Begin(edge EdgeID) SpanID {
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

func (t *refTracer) End(id SpanID, outcome Outcome) (Time, bool) {
	if id == 0 {
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

func (t *refTracer) Emit(edge EdgeID, outcome Outcome) {
	t.nextID++
	now := t.now()
	t.push(spanRec{ID: t.nextID, Edge: edge, Start: now, End: now, Outcome: outcome})
}

func (t *refTracer) push(s spanRec) {
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

func (t *refTracer) Spans() []Span {
	out := make([]Span, 0, len(t.done))
	for _, r := range append(t.done[t.head:len(t.done):len(t.done)], t.done[:t.head]...) {
		e := t.edges.Edge(r.Edge)
		out = append(out, Span{ID: r.ID, Src: e.Src, Dst: e.Dst, Label: e.Label, Start: r.Start, End: r.End, Outcome: r.Outcome})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func (t *refTracer) ByOutcome() []OutcomeCount {
	var out []OutcomeCount
	for o, n := range t.counts {
		if n > 0 {
			out = append(out, OutcomeCount{Outcome: Outcome(o), Count: n})
		}
	}
	return out
}

// checkAgainstRef compares everything a report reads off the tracer; the
// retained spans only when full, and their Chrome export only when full
// and few (or at the end, which the caller marks with step < 0).
func checkAgainstRef(t *testing.T, step int, got *Tracer, want *refTracer, full bool) {
	t.Helper()
	if got.Completed() != want.total || got.Dropped() != want.dropped || got.OpenCount() != len(want.open)-len(want.free) {
		t.Fatalf("step %d: completed/dropped/open = %d/%d/%d, want %d/%d/%d", step,
			got.Completed(), got.Dropped(), got.OpenCount(), want.total, want.dropped, len(want.open)-len(want.free))
	}
	if g, w := got.ByOutcome(), want.ByOutcome(); !reflect.DeepEqual(g, w) {
		t.Fatalf("step %d: ByOutcome = %v, want %v", step, g, w)
	}
	if !full {
		return
	}
	gs, ws := got.Spans(), want.Spans()
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("step %d: %d spans differ from the reference's %d", step, len(gs), len(ws))
	}
	if len(ws) > 64 && step >= 0 {
		return
	}
	gc, err := got.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	wc, err := chromeSpans(ws)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gc, wc) {
		t.Fatalf("step %d: ChromeTrace differs from the reference's", step)
	}
}

func TestTracerMatchesFixedRecordRing(t *testing.T) {
	// Random Begin/End/Emit sequences through the block ring and the
	// fixed-record ring it replaced must read back alike: spans, Chrome
	// export and every counter, at tiny caps where blocks hold many times
	// cap records, and at the default cap with the ring wrapping. Instants
	// repeat, jump by µs and by hours; every outcome occurs, plus one past
	// the named ones; edge ids run past what one varint byte holds.
	for _, capacity := range []int{1, 2, 3, 7, 16384} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			clk := &fakeClock{t: Time(rng.Int63n(1 << 40))}
			edges := NewEdges()
			ids := make([]EdgeID, 300)
			for i := range ids {
				ids[i] = edges.Intern(fmt.Sprintf("p%d", i%17), fmt.Sprintf("q%d", i), fmt.Sprintf("m%d", i%5))
			}
			got := NewTracer(clk.now, edges, capacity)
			want := &refTracer{now: clk.now, edges: edges, cap: capacity}
			var open []SpanID
			steps := 3*capacity + 3*RingBlockSize
			for step := 0; step < steps; step++ {
				switch rng.Intn(4) {
				case 0:
				case 1:
					clk.t += Time(rng.Intn(10_000))
				case 2:
					clk.t += Time(rng.Int63n(int64(10e9)))
				default:
					clk.t += Time(rng.Int63n(1 << 42))
				}
				edge := ids[rng.Intn(len(ids))]
				outcome := Outcome(rng.Intn(int(OutcomeAborted) + 1))
				if rng.Intn(50) == 0 {
					outcome = spanOutcomeEscape + Outcome(rng.Intn(3))
				}
				switch op := rng.Intn(10); {
				case op < 4:
					a, b := got.Begin(edge), want.Begin(edge)
					if a != b {
						t.Fatalf("step %d: Begin = %d, reference %d", step, a, b)
					}
					open = append(open, a)
				case op < 8 && len(open) > 0:
					k := rng.Intn(len(open))
					id := open[k]
					if rng.Intn(8) != 0 { // otherwise End it again: a stale handle
						open = append(open[:k], open[k+1:]...)
					}
					gd, gok := got.End(id, outcome)
					wd, wok := want.End(id, outcome)
					if gd != wd || gok != wok {
						t.Fatalf("step %d: End = %v,%v, reference %v,%v", step, gd, gok, wd, wok)
					}
				default:
					got.Emit(edge, outcome)
					want.Emit(edge, outcome)
				}
				checkAgainstRef(t, step, got, want, step < 64 || step%4999 == 0)
			}
			checkAgainstRef(t, -1, got, want, true)
			if capacity < steps && got.Dropped() == 0 {
				t.Fatal("the ring never wrapped")
			}
		})
	}
}

func TestBlockRingEvictsWholeBlocks(t *testing.T) {
	// The ring holds cap records plus at most one block's surplus, reuses
	// the evicted block, and counts a drop for every record past cap,
	// including the one whose append evicts a block.
	r := NewBlockRing(5)
	rec := make([]byte, RingBlockSize/4)
	for i := 1; i <= 40; i++ {
		b, _ := r.Grow(len(rec))
		r.Commit(append(b, rec...))
		if r.Len() != min(i, 5) || r.Dropped() != int64(max(i-5, 0)) {
			t.Fatalf("after %d records: len %d dropped %d", i, r.Len(), r.Dropped())
		}
		if blocks := len(r.blocks); blocks > 3 {
			t.Fatalf("after %d records: %d blocks for 5 quarter-block records", i, blocks)
		}
	}
	// AllocsPerRun rounds down, so each run appends enough records to open
	// many blocks: a block not recycled shows as at least one allocation.
	if n := testing.AllocsPerRun(10, func() {
		for range 64 {
			b, _ := r.Grow(len(rec))
			r.Commit(append(b, rec...))
		}
	}); n != 0 {
		t.Fatalf("64 records into a full ring allocate %.1f times, want 0", n)
	}
}

func TestBlockRingStartsSmall(t *testing.T) {
	// A ring's first block is small and each new block doubles the last up
	// to RingBlockSize; only standard-size blocks are recycled, so a full
	// ring still allocates nothing. A record too long for the next size
	// opens a block large enough to hold it.
	r := NewBlockRing(1 << 20)
	rec := make([]byte, 100)
	var sizes []int
	for range 200 {
		b, first := r.Grow(len(rec))
		if first {
			sizes = append(sizes, cap(b))
		}
		r.Commit(append(b, rec...))
	}
	if want := []int{512, 1024, 2048, 4096}; !reflect.DeepEqual(sizes[:4], want) || sizes[len(sizes)-1] != RingBlockSize {
		t.Fatalf("block sizes %v, want %v then %d", sizes, want, RingBlockSize)
	}
	r = NewBlockRing(4)
	if b, _ := r.Grow(700); cap(b) != 1024 {
		t.Fatalf("a 700-byte first record opens a %d-byte block, want 1024", cap(b))
	}
	r = NewBlockRing(2)
	big := make([]byte, 300)
	recycled := false
	for range 40 {
		b, _ := r.Grow(len(big))
		r.Commit(append(b, big...))
		if r.spare != nil {
			recycled = true
			if cap(r.spare) != RingBlockSize {
				t.Fatalf("a %d-byte block was kept for reuse", cap(r.spare))
			}
		}
	}
	if !recycled {
		t.Fatal("no standard-size block was recycled")
	}
}
