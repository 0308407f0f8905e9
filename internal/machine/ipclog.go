package machine

import (
	"sort"
	"time"

	"mkbas/internal/obs"
)

// IPCUsage identifies one kind of observed IPC delivery: a source and
// destination node (named in whatever namespace the recording kernel uses —
// ACM subject names on MINIX, thread/endpoint names on seL4, process/queue
// names on Linux) plus a label classifying the operation ("mt4", "send",
// "recv"). It is the board's interned edge in string form.
type IPCUsage = obs.Edge

// IPCUsageCount is one aggregated usage row.
type IPCUsageCount struct {
	IPCUsage
	Count int64
}

// IPCLog aggregates the board's observed IPC traffic. Kernels record every
// permitted delivery; the static policy analyzer (internal/polcheck) diffs
// the aggregate against the static grants to flag granted-but-never-used
// rights. Deliveries arrive as edge ids the kernel resolved when the
// channel was made, and counts are a slice indexed by id, so recording
// hashes nothing; strings come back from the edge table only in Usages,
// Count and Used. Counts are bounded by the number of distinct (src, dst,
// label) triples, not by traffic volume, so the log is safe to leave
// enabled for long runs.
//
// Like Trace, the log is unsynchronised: trap handlers run serialized on the
// engine's scheduling discipline.
type IPCLog struct {
	edges    *obs.Edges
	counts   []int64 // indexed by obs.EdgeID
	observer func(obs.EdgeID)
}

// NewIPCLog returns an empty usage log over a private edge table.
func NewIPCLog() *IPCLog { return newIPCLog(obs.NewEdges()) }

// newIPCLog returns an empty usage log whose ids index edges.
func newIPCLog(edges *obs.Edges) *IPCLog { return &IPCLog{edges: edges} }

// Edges returns the table the log's ids index. On a board it is the
// board's own table (obs.Board.Edges), so kernels intern through either.
func (l *IPCLog) Edges() *obs.Edges { return l.edges }

// SetObserver installs fn to see every Record call synchronously, in trap
// order — the online policy monitor's subscription point. One observer is
// supported; nil removes it. The observer runs on the recording kernel's
// trap path, so it must not allocate on its hot path and must not trap.
func (l *IPCLog) SetObserver(fn func(obs.EdgeID)) {
	l.observer = fn
}

// Record books one observed delivery on edge id, which must come from the
// log's table.
func (l *IPCLog) Record(id obs.EdgeID) {
	l.add(id, 1)
	if l.observer != nil {
		l.observer(id)
	}
}

// add books n deliveries on id, first extending counts to cover every id
// the table has issued if id is new to the log.
func (l *IPCLog) add(id obs.EdgeID, n int64) {
	if int(id) >= len(l.counts) {
		l.counts = append(l.counts, make([]int64, l.edges.Len()-len(l.counts))...)
	}
	l.counts[id] += n
}

// Count reports how many deliveries matched (src, dst, label). A triple
// the table never interned counts zero and is not interned by asking.
func (l *IPCLog) Count(src, dst, label string) int64 {
	id, ok := l.edges.Lookup(src, dst, label)
	if !ok || int(id) >= len(l.counts) {
		return 0
	}
	return l.counts[id]
}

// Used reports whether (src, dst, label) was observed at least once.
func (l *IPCLog) Used(src, dst, label string) bool {
	return l.Count(src, dst, label) > 0
}

// Len reports the number of distinct usage rows.
func (l *IPCLog) Len() int {
	n := 0
	for _, c := range l.counts {
		if c != 0 {
			n++
		}
	}
	return n
}

// Merge folds other's counts into l by (src, dst, label); the two logs may
// index different edge tables. other is unchanged; a nil other is a no-op.
// bas policy -audit uses Merge with Reset to diff usage across multiple run
// slices of the same board.
func (l *IPCLog) Merge(other *IPCLog) {
	if other == nil {
		return
	}
	for id, n := range other.counts {
		if n != 0 {
			e := other.edges.Edge(obs.EdgeID(id))
			l.add(l.edges.Intern(e.Src, e.Dst, e.Label), n)
		}
	}
}

// Reset discards all recorded usage, so the next run slice starts from an
// empty log. Edge ids stay valid.
func (l *IPCLog) Reset() {
	clear(l.counts)
}

// Clone returns an independent copy of the log.
func (l *IPCLog) Clone() *IPCLog {
	out := NewIPCLog()
	out.Merge(l)
	return out
}

// MergeUsages sums usage rows from many boards by (src, dst, label). The
// fleet runner folds per-shard IPC logs with it; the result is sorted like
// Usages, a deterministic function of the inputs alone.
func MergeUsages(sets ...[]IPCUsageCount) []IPCUsageCount {
	merged := NewIPCLog()
	for _, set := range sets {
		for _, u := range set {
			merged.add(merged.edges.Intern(u.Src, u.Dst, u.Label), u.Count)
		}
	}
	return merged.Usages()
}

// Usages returns the aggregated rows sorted by (src, dst, label) for stable
// reports.
func (l *IPCLog) Usages() []IPCUsageCount {
	out := make([]IPCUsageCount, 0, l.Len())
	for id, n := range l.counts {
		if n != 0 {
			out = append(out, IPCUsageCount{IPCUsage: l.edges.Edge(obs.EdgeID(id)), Count: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Label < b.Label
	})
	return out
}

// IPCFaults is a kernel's fault-injection IPC filter, embedded in every
// kernel. The kernel consults it after its policy allows a delivery, with
// the sender's name and the name of what it sends to (a process, an
// endpoint or a queue): drop loses the message in transit, delay postpones
// its delivery. Transport faults model flaky drivers, not policy: denials
// still come only from the kernel's access checks.
type IPCFaults struct {
	filter func(src, dst string) (drop bool, delay time.Duration)
}

// SetIPCFault installs fn as the filter; nil clears it, the common case.
func (f *IPCFaults) SetIPCFault(fn func(src, dst string) (drop bool, delay time.Duration)) {
	f.filter = fn
}

// FaultFor consults the installed filter; with none, nothing is dropped or
// delayed.
func (f *IPCFaults) FaultFor(src, dst string) (bool, time.Duration) {
	if f.filter == nil {
		return false, 0
	}
	return f.filter(src, dst)
}
