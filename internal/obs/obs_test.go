package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// fakeClock is a settable virtual clock for tests.
type fakeClock struct{ t Time }

func (c *fakeClock) now() Time { return c.t }

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	c.Add(-1) // negative adds are dropped: counters are monotone
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("x_total") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	var l *EventLog
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(time.Second)
	tr.Emit(0, OutcomeDelivered)
	tr.End(tr.Begin(0), OutcomeDelivered)
	l.Emit(SecurityEvent{Kind: EventKill})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || l.Total() != 0 {
		t.Fatal("nil receivers must observe nothing")
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", []time.Duration{10, 100})
	// Upper edges are inclusive; past the last bound goes to +Inf.
	h.Observe(10)
	h.Observe(11)
	h.Observe(100)
	h.Observe(101)
	h.Observe(0)
	snap := r.Histograms()[0]
	if snap.Count != 5 || snap.SumNanos != 10+11+100+101 {
		t.Fatalf("count=%d sum=%d", snap.Count, snap.SumNanos)
	}
	want := []BucketSnap{{UpperNanos: 10, Count: 2}, {UpperNanos: 100, Count: 2}, {UpperNanos: 0, Count: 1}}
	if len(snap.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", snap.Buckets, want)
	}
	for i := range want {
		if snap.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, snap.Buckets[i], want[i])
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", []time.Duration{100, 200, 400})
	// Empty and nil histograms report zero.
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty quantile = %s, want 0", h.Quantile(0.5))
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile must be 0")
	}

	// 100 observations spread uniformly through the (0,100] bucket.
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i + 1))
	}
	// Single-bucket interpolation: rank q*100 of 100 counts in a 0..100ns
	// bucket lands at q*100 ns exactly.
	if got := h.Quantile(0.50); got != 50 {
		t.Errorf("p50 = %s, want 50ns", got)
	}
	if got := h.Quantile(0.95); got != 95 {
		t.Errorf("p95 = %s, want 95ns", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("p100 = %s, want 100ns (bucket upper edge)", got)
	}

	// Push 100 more into (200,400]: p50 stays in bucket one, p95 moves.
	for i := 0; i < 100; i++ {
		h.Observe(300)
	}
	// rank(0.95) = 190 of 200; bucket (200,400] holds ranks 101..200, so
	// frac = (190-100)/100 = 0.9 → 200 + 0.9*200 = 380ns.
	if got := h.Quantile(0.95); got != 380 {
		t.Errorf("p95 after skew = %s, want 380ns", got)
	}
	if got := h.Quantile(0.25); got != 50 {
		t.Errorf("p25 = %s, want 50ns", got)
	}

	// +Inf observations clamp to the last finite bound.
	h2 := r.Histogram("inf_ns", []time.Duration{10})
	h2.Observe(1000)
	if got := h2.Quantile(0.99); got != 10 {
		t.Errorf("+Inf-bucket quantile = %s, want clamp to 10ns", got)
	}

	// Snapshot carries the interpolated percentiles.
	for _, snap := range r.Histograms() {
		if snap.Name != "lat_ns" {
			continue
		}
		if snap.P50Ns != 100 || snap.P95Ns != 380 {
			t.Errorf("snap p50=%d p95=%d, want 100/380", snap.P50Ns, snap.P95Ns)
		}
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds must panic at registration")
		}
	}()
	NewRegistry().Histogram("bad", []time.Duration{5, 5})
}

func TestSpanLifecycleAndOutcomes(t *testing.T) {
	clk := &fakeClock{}
	edges := NewEdges()
	tr := NewTracer(clk.now, edges, 8)
	outer := tr.Begin(edges.Intern("web", "pm", "sendrec mt4"))
	clk.t = 10
	inner := tr.Begin(edges.Intern("pm", "kernel", "kSpawn"))
	clk.t = 20
	if d, ok := tr.End(inner, OutcomeDelivered); !ok || d != 10 {
		t.Fatalf("inner = %v ok=%v", d, ok)
	}
	clk.t = 30
	if d, ok := tr.End(outer, OutcomeACMDenied); !ok || d != 30 {
		t.Fatalf("outer = %v ok=%v", d, ok)
	}
	if _, ok := tr.End(outer, OutcomeDelivered); ok {
		t.Fatal("double End must fail")
	}
	if _, ok := tr.End(0, OutcomeDelivered); ok {
		t.Fatal("zero id must fail")
	}
	tr.Emit(edges.Intern("x", "y", "mq_open"), OutcomeDACDenied)
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("completed spans = %d, want 3", len(spans))
	}
	if s := spans[1]; s.Src != "pm" || s.Dst != "kernel" || s.Start != 10 || s.End != 20 || s.Outcome != OutcomeDelivered {
		t.Fatalf("inner span = %+v", s)
	}
	// Sorted by start time: outer (0), inner (10), emit (30).
	if spans[0].Label != "sendrec mt4" || spans[1].Label != "kSpawn" || spans[2].Label != "mq_open" {
		t.Fatalf("span order wrong: %+v", spans)
	}
	byOutcome := tr.ByOutcome()
	got := map[Outcome]int64{}
	for _, oc := range byOutcome {
		got[oc.Outcome] = oc.Count
	}
	if got[OutcomeDelivered] != 1 || got[OutcomeACMDenied] != 1 || got[OutcomeDACDenied] != 1 {
		t.Fatalf("outcome counts wrong: %+v", byOutcome)
	}
}

func TestSpanRingEviction(t *testing.T) {
	clk := &fakeClock{}
	edges := NewEdges()
	tr := NewTracer(clk.now, edges, 2)
	x := edges.Intern("a", "b", "x")
	for i := 0; i < 5; i++ {
		clk.t = Time(i)
		tr.Emit(x, OutcomeDelivered)
	}
	if tr.Completed() != 5 || tr.Dropped() != 3 {
		t.Fatalf("completed=%d dropped=%d", tr.Completed(), tr.Dropped())
	}
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Start != 3 || spans[1].Start != 4 {
		t.Fatalf("ring should keep the newest spans: %+v", spans)
	}
}

func TestSpanRingWrapResolvesEdges(t *testing.T) {
	// Records store edge ids; after the ring wraps, the retained spans must
	// still come back with their own names, in (Start, ID) order, and the
	// lifetime counters must include the evicted ones.
	clk := &fakeClock{}
	edges := NewEdges()
	tr := NewTracer(clk.now, edges, 3)
	send := edges.Intern("web", "q", "mq_send")
	recv := edges.Intern("ctrl", "q", "mq_receive")
	deny := edges.Intern("web", "heater", "mq_open")
	open := tr.Begin(recv)
	for i := 1; i <= 4; i++ {
		clk.t = Time(10 * i)
		tr.Emit(send, OutcomeDelivered)
	}
	tr.Emit(deny, OutcomeDACDenied)
	clk.t = 50
	if d, ok := tr.End(open, OutcomeDelivered); !ok || d != 50 {
		t.Fatalf("End = %v, %v", d, ok)
	}
	want := []Span{
		{ID: 5, Src: "web", Dst: "q", Label: "mq_send", Start: 40, End: 40, Outcome: OutcomeDelivered},
		{ID: 6, Src: "web", Dst: "heater", Label: "mq_open", Start: 40, End: 40, Outcome: OutcomeDACDenied},
		{ID: 1, Src: "ctrl", Dst: "q", Label: "mq_receive", Start: 0, End: 50, Outcome: OutcomeDelivered},
	}
	want = append(want[2:], want[:2]...) // sorted by Start: the long span began first
	if got := tr.Spans(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Spans after wrap:\n got %+v\nwant %+v", got, want)
	}
	if tr.Completed() != 6 || tr.Dropped() != 3 || tr.OpenCount() != 0 {
		t.Fatalf("completed=%d dropped=%d open=%d", tr.Completed(), tr.Dropped(), tr.OpenCount())
	}
	wantOutcomes := []OutcomeCount{{OutcomeDelivered, 5}, {OutcomeDACDenied, 1}}
	if got := tr.ByOutcome(); !reflect.DeepEqual(got, wantOutcomes) {
		t.Fatalf("ByOutcome = %+v, want %+v", got, wantOutcomes)
	}
}

func TestTracerHotPathAllocatesNothing(t *testing.T) {
	// Every mediated round trip crosses Begin/End and every denial Emit;
	// once the ring is full (its evicted blocks recycling) they must not
	// allocate. An open span stays in a 32-byte pointer-free slot; the
	// completed-span ring's budget is TestSpanRingByteBudget's.
	if n := unsafe.Sizeof(spanRec{}); n != 32 {
		t.Fatalf("span record is %d bytes, want 32", n)
	}
	edges := NewEdges()
	tr := NewTracer(nil, edges, 4)
	e := edges.Intern("a", "b", "call")
	for i := 0; i < 8; i++ {
		tr.End(tr.Begin(e), OutcomeDelivered)
	}
	if n := testing.AllocsPerRun(200, func() {
		tr.End(tr.Begin(e), OutcomeDelivered)
		tr.Emit(e, OutcomeCapFault)
	}); n != 0 {
		t.Fatalf("Begin/End/Emit allocate %.1f/op, want 0", n)
	}
}

func TestSpanRingByteBudget(t *testing.T) {
	// A full default ring of mediated round trips — µs long, seconds apart,
	// over a board's worth of edges — must retain at most 12 bytes a span
	// plus one block: the block encoding is what the buildings' heap rests
	// on (the fixed-record ring it replaced took 32).
	clk := &fakeClock{}
	edges := NewEdges()
	var ids []EdgeID
	for i := 0; i < 40; i++ {
		ids = append(ids, edges.Intern(fmt.Sprintf("p%d", i%6), fmt.Sprintf("p%d", i%7), fmt.Sprintf("mt%d", i)))
	}
	tr := NewTracer(clk.now, edges, 0)
	rng := rand.New(rand.NewSource(1))
	const spans = 16384
	for i := 0; i < 2*spans; i++ {
		clk.t += Time(1e9 + rng.Int63n(2e9))
		id := tr.Begin(ids[rng.Intn(len(ids))])
		clk.t += Time(1e3 + rng.Int63n(20e3))
		tr.End(id, OutcomeDelivered)
	}
	if n := len(tr.Spans()); n != spans {
		t.Fatalf("ring retains %d spans, want %d", n, spans)
	}
	held := cap(tr.done.spare)
	for _, blk := range tr.done.blocks {
		held += cap(blk.buf)
	}
	if budget := 12*spans + RingBlockSize; held > budget {
		t.Fatalf("ring holds %d bytes (%.1f B/span), budget %d", held, float64(held)/spans, budget)
	}
	t.Logf("%d spans in %d bytes: %.2f B/span", spans, held, float64(held)/spans)
}

func TestEventLogTotals(t *testing.T) {
	clk := &fakeClock{t: 42}
	l := NewEventLog(clk.now, 16)
	l.SetPlatform("minix")
	l.Emit(SecurityEvent{Kind: EventIPCDenied, Mechanism: MechACM, Denied: true, Src: "web", Dst: "temp"})
	l.Emit(SecurityEvent{Kind: EventIPCDenied, Mechanism: MechACM, Denied: true, Src: "web", Dst: "heater"})
	l.Emit(SecurityEvent{Kind: EventKill, Mechanism: MechSyscallMask, Src: "pm", Dst: "web"})
	l.Emit(SecurityEvent{Kind: EventKillDenied, Mechanism: MechKernel, Denied: true})

	if first := l.Events()[0]; first.At != 42 || first.Platform != "minix" {
		t.Fatalf("event not stamped: %+v", first)
	}
	if l.Total() != 4 || l.DeniedTotal() != 3 {
		t.Fatalf("total=%d denied=%d", l.Total(), l.DeniedTotal())
	}
	mechs := l.Mechanisms()
	if len(mechs) != 2 || mechs[0] != MechACM || mechs[1] != MechKernel {
		t.Fatalf("denying mechanisms = %v", mechs)
	}
	var acmDenied *EventTotal
	for i, tot := range l.Totals() {
		if tot.Kind == EventIPCDenied && tot.Mechanism == MechACM && tot.Denied {
			acmDenied = &l.Totals()[i]
		}
	}
	if acmDenied == nil || acmDenied.Count != 2 {
		t.Fatalf("acm ipc-denied total wrong: %+v", l.Totals())
	}
}

// TestEventLogTotalsMatchMapOracle emits 18 distinct (kind, mechanism,
// denied) keys in scrambled order, with scrambled multiplicities, and
// checks Totals, Mechanisms and DeniedTotal against a map-keyed oracle: the
// aggregation the row scan replaced, sorted the same way.
func TestEventLogTotalsMatchMapOracle(t *testing.T) {
	type key struct {
		kind   EventKind
		mech   Mechanism
		denied bool
	}
	kinds := []EventKind{EventIPCDenied, EventKill, EventAuthzDenied, EventOverload}
	mechs := []Mechanism{MechRBAC, MechACM, MechPolicyMonitor, MechKernel}
	// Some (kind, mechanism) pairs come allowed and denied, some one way.
	var keys []key
	for i, k := range kinds {
		for j, m := range mechs {
			if (i+j)%3 != 0 {
				keys = append(keys, key{k, m, true})
			}
			if (i+j)%2 == 0 {
				keys = append(keys, key{k, m, false})
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	var stream []key
	for _, k := range keys {
		for n := 1 + rng.Intn(9); n > 0; n-- {
			stream = append(stream, k)
		}
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })

	l := NewEventLog(nil, 8)
	oracle := map[key]int64{}
	for _, k := range stream {
		l.Emit(SecurityEvent{Kind: k.kind, Mechanism: k.mech, Denied: k.denied, Src: "s"})
		oracle[k]++
	}
	if len(oracle) != 18 {
		t.Fatalf("%d distinct keys emitted, want 18", len(oracle))
	}

	want := []EventTotal{}
	var wantDenied int64
	deniedBy := map[Mechanism]bool{}
	for k, n := range oracle {
		want = append(want, EventTotal{Kind: k.kind, Mechanism: k.mech, Denied: k.denied, Count: n})
		if k.denied {
			wantDenied += n
			deniedBy[k.mech] = true
		}
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Mechanism != b.Mechanism {
			return a.Mechanism < b.Mechanism
		}
		return !a.Denied && b.Denied
	})
	wantMechs := []Mechanism{}
	for m := range deniedBy {
		wantMechs = append(wantMechs, m)
	}
	sort.Slice(wantMechs, func(i, j int) bool { return wantMechs[i] < wantMechs[j] })

	got := l.Totals()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Totals:\n got %+v\nwant %+v", got, want)
	}
	if got := l.Mechanisms(); !reflect.DeepEqual(got, wantMechs) {
		t.Fatalf("Mechanisms = %v, want %v", got, wantMechs)
	}
	if got := l.DeniedTotal(); got != wantDenied {
		t.Fatalf("DeniedTotal = %d, want %d", got, wantDenied)
	}
	// Totals is a copy: editing it leaves the log's rows alone.
	got[0].Count = -1
	if !reflect.DeepEqual(l.Totals(), want) {
		t.Fatal("Totals aliases the log's rows")
	}
	// An empty log reports empty, non-nil lists, as reports marshal them.
	empty := NewEventLog(nil, 0)
	if tot, ms := empty.Totals(), empty.Mechanisms(); tot == nil || len(tot) != 0 || ms == nil || len(ms) != 0 {
		t.Fatalf("empty log: Totals %#v, Mechanisms %#v", tot, ms)
	}
}

func TestEventLogRingRetention(t *testing.T) {
	clk := &fakeClock{}
	l := NewEventLog(clk.now, 2)
	for i := 0; i < 4; i++ {
		clk.t = Time(i)
		l.Emit(SecurityEvent{Kind: EventCapFault, Mechanism: MechCapability, Denied: true})
	}
	evs := l.Events()
	if l.Total() != 4 || l.Dropped() != 2 || len(evs) != 2 {
		t.Fatalf("total=%d dropped=%d retained=%d", l.Total(), l.Dropped(), len(evs))
	}
	if evs[0].At != 2 || evs[1].At != 3 {
		t.Fatalf("retained events must be the newest, oldest-first: %+v", evs)
	}
	// Totals survive eviction.
	if l.DeniedTotal() != 4 {
		t.Fatalf("DeniedTotal = %d, want 4", l.DeniedTotal())
	}
}

func TestPromTextEmitsTypeOncePerBase(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Inc()
	r.Gauge(`mq_depth{queue="/x"}`).Set(1)
	r.Gauge(`mq_depth{queue="/y"}`).Set(2)
	r.Histogram("lat_ns", []time.Duration{10}).Observe(5)
	text := r.PromText()
	if got := strings.Count(text, "# TYPE mq_depth gauge"); got != 1 {
		t.Fatalf("TYPE mq_depth emitted %d times:\n%s", got, text)
	}
	for _, want := range []string{
		"a_total 1",
		`mq_depth{queue="/x"} 1`,
		`lat_ns_bucket{le="10"} 1`,
		`lat_ns_bucket{le="+Inf"} 1`,
		"lat_ns_sum 5",
		"lat_ns_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	build := func() []byte {
		clk := &fakeClock{}
		edges := NewEdges()
		tr := NewTracer(clk.now, edges, 8)
		id := tr.Begin(edges.Intern("web", "pm", "sendrec"))
		clk.t = 3000
		tr.End(id, OutcomeDelivered)
		tr.Emit(edges.Intern("temp", "heater", "send"), OutcomeACMDenied)
		out, err := tr.ChromeTrace()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatal("ChromeTrace must be byte-stable for identical histories")
	}
	for _, want := range []string{`"ph": "X"`, `"ph": "M"`, "thread_name", "sendrec"} {
		if !strings.Contains(string(a), want) {
			t.Fatalf("missing %q in trace:\n%s", want, a)
		}
	}
}

func TestBoardReportJSONDeterministic(t *testing.T) {
	build := func() []byte {
		clk := &fakeClock{}
		b := NewBoard(clk.now)
		b.Events().SetPlatform("test")
		b.Metrics().Counter("c_total").Add(3)
		b.Metrics().Histogram("h_ns", nil).Observe(4 * time.Microsecond)
		id := b.Tracer().Begin(b.Edges().Intern("a", "b", "x"))
		clk.t = 1000
		b.Tracer().End(id, OutcomeDelivered)
		b.Events().Emit(SecurityEvent{Kind: EventIPCDenied, Mechanism: MechACM, Denied: true, Src: "a", Dst: "b"})
		out, err := b.Report("test", true).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatal("report JSON must be byte-stable")
	}
	for _, want := range []string{`"platform": "test"`, `"ipc-denied"`, `"acm"`, "c_total", "h_ns"} {
		if !strings.Contains(string(a), want) {
			t.Fatalf("missing %q in report:\n%s", want, a)
		}
	}
}
