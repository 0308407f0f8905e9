package machine

import (
	"reflect"
	"testing"

	"mkbas/internal/obs"
)

// record books one delivery on (src, dst, label), interning it first the
// way a kernel does when the channel is made.
func record(l *IPCLog, src, dst, label string) {
	l.Record(l.Edges().Intern(src, dst, label))
}

func TestIPCLogAggregation(t *testing.T) {
	l := NewIPCLog()
	if l.Len() != 0 || l.Used("a", "b", "mt1") {
		t.Fatal("fresh log must be empty")
	}
	record(l, "a", "b", "mt1")
	record(l, "a", "b", "mt1")
	record(l, "a", "b", "mt2")
	record(l, "z", "a", "send")

	if got := l.Count("a", "b", "mt1"); got != 2 {
		t.Errorf("Count(a,b,mt1) = %d, want 2", got)
	}
	if !l.Used("a", "b", "mt2") || l.Used("b", "a", "mt1") {
		t.Error("Used should reflect exactly the recorded direction")
	}
	if l.Len() != 3 {
		t.Errorf("Len = %d, want 3 distinct rows", l.Len())
	}

	want := []IPCUsageCount{
		{IPCUsage{Src: "a", Dst: "b", Label: "mt1"}, 2},
		{IPCUsage{Src: "a", Dst: "b", Label: "mt2"}, 1},
		{IPCUsage{Src: "z", Dst: "a", Label: "send"}, 1},
	}
	if got := l.Usages(); !reflect.DeepEqual(got, want) {
		t.Errorf("Usages = %+v, want %+v", got, want)
	}
}

func TestIPCLogMergeAndReset(t *testing.T) {
	a := NewIPCLog()
	record(a, "a", "b", "mt1")
	record(a, "a", "b", "mt1")
	b := NewIPCLog()
	record(b, "a", "b", "mt1")
	record(b, "c", "d", "send")

	a.Merge(b)
	if got := a.Count("a", "b", "mt1"); got != 3 {
		t.Errorf("merged Count(a,b,mt1) = %d, want 3", got)
	}
	if !a.Used("c", "d", "send") {
		t.Error("merge must import rows the target had not seen")
	}
	if b.Count("a", "b", "mt1") != 1 {
		t.Error("merge must not mutate the source")
	}
	a.Merge(nil) // nil source is a no-op
	if a.Len() != 2 {
		t.Errorf("Len after nil merge = %d, want 2", a.Len())
	}

	clone := a.Clone()
	a.Reset()
	if a.Len() != 0 || a.Used("a", "b", "mt1") {
		t.Error("Reset must clear the log")
	}
	if clone.Count("a", "b", "mt1") != 3 || clone.Len() != 2 {
		t.Errorf("clone must survive the source's Reset: %+v", clone.Usages())
	}
	// A reset log is immediately usable for the next run slice.
	record(a, "x", "y", "recv")
	if a.Count("x", "y", "recv") != 1 {
		t.Error("reset log must accept new recordings")
	}
}

func TestMachineHasIPCLog(t *testing.T) {
	m := New(Config{})
	defer m.Shutdown()
	record(m.IPC(), "x", "y", "send")
	if !m.IPC().Used("x", "y", "send") {
		t.Fatal("machine's IPC log should retain recordings")
	}
	if m.IPC().Edges() != m.Obs().Edges() {
		t.Fatal("the IPC log and the board's tracer must share one edge table")
	}
}

func TestMergeUsages(t *testing.T) {
	a := []IPCUsageCount{
		{IPCUsage: IPCUsage{Src: "web", Dst: "ctrl", Label: "send"}, Count: 2},
		{IPCUsage: IPCUsage{Src: "ctrl", Dst: "heater", Label: "send"}, Count: 1},
	}
	b := []IPCUsageCount{
		{IPCUsage: IPCUsage{Src: "web", Dst: "ctrl", Label: "send"}, Count: 5},
	}
	got := MergeUsages(a, b, nil)
	if len(got) != 2 {
		t.Fatalf("MergeUsages returned %d rows, want 2", len(got))
	}
	if got[0].Src != "ctrl" || got[0].Count != 1 {
		t.Errorf("row 0 = %+v", got[0])
	}
	if got[1].Src != "web" || got[1].Count != 7 {
		t.Errorf("row 1 = %+v", got[1])
	}
	if out := MergeUsages(); len(out) != 0 {
		t.Errorf("empty merge returned %+v", out)
	}
}

func TestIPCLogInternOrderDoesNotShowInReports(t *testing.T) {
	// Edge ids follow interning order, which differs from board to board;
	// every string-level result must not.
	triples := [][3]string{{"web", "ctrl", "mt4"}, {"ctrl", "heater", "mt1"}, {"q", "ctrl", "recv"}}
	a, b := NewIPCLog(), NewIPCLog()
	for i := range triples {
		x, y := triples[i], triples[len(triples)-1-i]
		for n := 0; n <= i; n++ {
			record(a, x[0], x[1], x[2])
		}
		for n := 0; n < len(triples)-i; n++ {
			record(b, y[0], y[1], y[2])
		}
	}
	if a.Edges().Edge(0) == b.Edges().Edge(0) {
		t.Fatal("test needs the two tables to issue ids in different orders")
	}
	if ua, ub := a.Usages(), b.Usages(); !reflect.DeepEqual(ua, ub) {
		t.Fatalf("Usages differ by intern order:\n%+v\n%+v", ua, ub)
	}
	if ma, mb := MergeUsages(a.Usages(), b.Usages()), MergeUsages(b.Usages(), a.Usages()); !reflect.DeepEqual(ma, mb) {
		t.Fatalf("MergeUsages differ by intern order:\n%+v\n%+v", ma, mb)
	}
}

func TestIPCLogMergeAcrossEdgeTables(t *testing.T) {
	// Two boards' logs index different tables: the same id names different
	// triples, and a triple one table lacks must be interned by Merge.
	a, b := NewIPCLog(), NewIPCLog()
	record(a, "a", "b", "mt1")
	record(b, "c", "d", "send") // id 0 in b, a different triple from a's id 0
	record(b, "a", "b", "mt1")
	a.Merge(b)
	want := []IPCUsageCount{
		{IPCUsage{Src: "a", Dst: "b", Label: "mt1"}, 2},
		{IPCUsage{Src: "c", Dst: "d", Label: "send"}, 1},
	}
	if got := a.Usages(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged Usages = %+v, want %+v", got, want)
	}
	clone := a.Clone()
	if clone.Edges() == a.Edges() {
		t.Fatal("a clone must not share the source's edge table")
	}
	record(a, "a", "b", "mt1")
	if got := clone.Usages(); !reflect.DeepEqual(got, want) {
		t.Fatalf("clone Usages = %+v, want %+v", got, want)
	}
}

func TestIPCLogQueryDoesNotIntern(t *testing.T) {
	l := NewIPCLog()
	record(l, "a", "b", "mt1")
	if l.Count("x", "y", "mt9") != 0 || l.Used("x", "y", "mt9") {
		t.Fatal("a triple never interned must count zero")
	}
	if l.Edges().Len() != 1 || l.Len() != 1 {
		t.Fatalf("querying grew the log: %d edges, %d rows", l.Edges().Len(), l.Len())
	}
	// An interned triple with no deliveries is no row either.
	l.Edges().Intern("p", "q", "send")
	if l.Len() != 1 || len(l.Usages()) != 1 || l.Used("p", "q", "send") {
		t.Fatalf("an undelivered edge must not report: %+v", l.Usages())
	}
}

func TestIPCLogRecordAllocatesNothing(t *testing.T) {
	l := NewIPCLog()
	id := l.Edges().Intern("a", "b", "mt1")
	var seen obs.EdgeID
	l.SetObserver(func(e obs.EdgeID) { seen = e })
	record(l, "a", "b", "mt1") // first delivery sizes the counts
	if n := testing.AllocsPerRun(200, func() { l.Record(id) }); n != 0 {
		t.Fatalf("Record allocates %.1f/op, want 0", n)
	}
	if seen != id || l.Count("a", "b", "mt1") != 202 {
		t.Fatalf("observer saw %d, count %d", seen, l.Count("a", "b", "mt1"))
	}
}
