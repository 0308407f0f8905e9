package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"mkbas/internal/obs"
	"mkbas/internal/perf"
	"mkbas/internal/tenantapi"
)

// value is one reported number with its unit, the number of samples behind a
// median or percentile, and the base of a ratio.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Base    string  `json:"base,omitempty"`
}

// pass is one execution of a workload, untraced or traced.
type pass struct {
	setup []time.Duration
	// steps are the host times of the timed calls; wall is the host time the
	// timed window spent inside them, and units the work they completed.
	steps    []time.Duration
	wall     time.Duration
	units    float64
	unitBase string
	heap     heapProbe
	allocs   uint64

	attempted, failed int64
	errs              []string
	digest            string
	// layers holds the per-layer metrics this pass could measure.
	layers map[string]value
	phases *perf.Snapshot

	windowStart  time.Time
	allocsBefore uint64
}

func newPass() *pass { return &pass{layers: map[string]value{}} }

// set books a per-layer metric under its declared unit.
func (p *pass) set(name string, v float64, samples int, base string) {
	def, ok := lookupMetric(name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	p.layers[name] = value{Value: v, Unit: def.Unit, Samples: samples, Base: base}
}

// setSteps books the median and tail percentiles of the timed steps' host
// times under the given per-layer names. A tail percentile with too few
// samples beyond it is left out.
func (p *pass) setSteps(p50, p90 string) {
	ms := sortedMs(p.steps)
	if v, ok := median(ms); ok {
		p.set(p50, v, len(ms), "")
	}
	if v, ok := tail(ms, 90); ok {
		p.set(p90, v, len(ms), "")
	}
}

// timeSetup runs setup once untimed, to finish the process's own lazy
// set-up, then timed until it has run setupReps times and setupSpan has
// passed. Before each repetition, reset releases the previous one and the
// garbage is collected, so every repetition starts from the same heap.
func (p *pass) timeSetup(reset func(), setup func() error) error {
	began := time.Now()
	for i := 0; i <= setupReps || time.Since(began) < setupSpan; i++ {
		if reset != nil {
			reset()
		}
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return err
		}
		if i > 0 {
			p.setup = append(p.setup, time.Since(start))
		}
	}
	return nil
}

// startWindow opens a timed stretch after collecting garbage, so that every
// stretch starts from the same heap; endWindow closes it. A workload may
// time several stretches.
func (p *pass) startWindow() {
	runtime.GC()
	p.allocsBefore = readUint(allocsMetric)
	p.windowStart = time.Now()
}

func (p *pass) endWindow() {
	p.wall += time.Since(p.windowStart)
	p.allocs += readUint(allocsMetric) - p.allocsBefore
}

const (
	allocsMetric   = "/gc/heap/allocs:objects"
	liveHeapMetric = "/gc/heap/live:bytes"
)

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapProbe tracks the peak of the heap the last garbage collection found
// live. Callers serialise sample.
type heapProbe struct{ peak uint64 }

func (h *heapProbe) sample() {
	if v := readUint(liveHeapMetric); v > h.peak {
		h.peak = v
	}
}

// phase returns the named phase row of a profiler snapshot (zero if absent).
func phase(s *perf.Snapshot, name string) perf.PhaseSnap {
	for _, ph := range s.Phases {
		if ph.Name == name {
			return ph
		}
	}
	return perf.PhaseSnap{Name: name}
}

// phaseDelta is what the named phase accumulated between two snapshots.
func phaseDelta(before, after *perf.Snapshot, name string) perf.PhaseSnap {
	a, b := phase(after, name), phase(before, name)
	return perf.PhaseSnap{Name: name, Count: a.Count - b.Count, TotalNs: a.TotalNs - b.TotalNs}
}

// gauge returns the named gauge of a profiler snapshot.
func gauge(s *perf.Snapshot, name string) (int64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// statusLatency is the tenant tier's room-status latency histogram, in
// virtual time.
const statusLatency = "api_latency_room-status"

func findHist(hs []obs.HistogramSnap, name string) *obs.HistogramSnap {
	for i := range hs {
		if hs[i].Name == name {
			return &hs[i]
		}
	}
	return nil
}

// tenantRatios books the served and typed-denial shares of reqs requests.
func tenantRatios(p *pass, reqs int64, count func(outcome string) int64) {
	base := fmt.Sprintf("requests=%d", reqs)
	r := func(o tenantapi.Outcome) float64 { return float64(count(o.String())) / float64(reqs) }
	p.set("tenantapi.served_ratio", r(tenantapi.OutcomeOK), 0, base)
	p.set("tenantapi.denied_ratio.unauthorized", r(tenantapi.OutcomeUnauthorized), 0, base)
	p.set("tenantapi.denied_ratio.forbidden", r(tenantapi.OutcomeForbidden), 0, base)
	p.set("tenantapi.denied_ratio.rate-limited", r(tenantapi.OutcomeRateLimited), 0, base)
	p.set("tenantapi.denied_ratio.overload", r(tenantapi.OutcomeOverload), 0, base)
}
