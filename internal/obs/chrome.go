package obs

import (
	"encoding/json"
	"sort"
)

// ChromeEvent is one entry in the Chrome trace-event JSON format that
// Perfetto and chrome://tracing load. "X" events are complete spans with
// microsecond timestamps; "M" events carry thread-name metadata. A nil Dur
// is left out of the JSON.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// EncodeChrome is the one Chrome trace-event encoder, shared by the
// virtual-time board trace (Tracer.ChromeTrace) and the host-time campaign
// trace (perf.Profiler.ChromeTrace). threads name the tracks: thread i is
// TID i+1 and gets a thread_name metadata event. spans are complete events
// on those TIDs; the encoder sets their Ph and PID. metaDur, when non-nil,
// is written as the metadata events' dur (the host trace's layout).
func EncodeChrome(threads []string, spans []ChromeEvent, metaDur *float64) ([]byte, error) {
	trace := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: make([]ChromeEvent, 0, len(threads)+len(spans))}
	for i, n := range threads {
		trace.TraceEvents = append(trace.TraceEvents, ChromeEvent{
			Name: "thread_name", Ph: "M", Dur: metaDur, PID: 1, TID: i + 1,
			Args: map[string]any{"name": n},
		})
	}
	for _, e := range spans {
		e.Ph, e.PID = "X", 1
		trace.TraceEvents = append(trace.TraceEvents, e)
	}
	return json.MarshalIndent(trace, "", " ")
}

// ChromeTrace renders the tracer's retained spans as Chrome trace-event
// JSON. Each source name becomes a "thread" (sorted for determinism), each
// span a complete event with src/dst/outcome in args, timestamps in
// virtual microseconds since boot. A zero-length span carries no dur.
func (t *Tracer) ChromeTrace() ([]byte, error) { return chromeSpans(t.Spans()) }

// chromeSpans renders spans, sorted as Tracer.Spans returns them, as
// ChromeTrace does.
func chromeSpans(spans []Span) ([]byte, error) {
	names := map[string]int{}
	for _, s := range spans {
		names[s.Src] = 0
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for i, n := range sorted {
		names[n] = i + 1
	}

	events := make([]ChromeEvent, 0, len(spans))
	for _, s := range spans {
		e := ChromeEvent{
			Name: s.Label,
			Cat:  "ipc",
			Ts:   float64(s.Start) / 1e3,
			TID:  names[s.Src],
			Args: map[string]any{
				"src":     s.Src,
				"dst":     s.Dst,
				"outcome": s.Outcome.String(),
			},
		}
		if d := float64(s.Duration()) / 1e3; d != 0 {
			e.Dur = &d
		}
		events = append(events, e)
	}
	return EncodeChrome(sorted, events, nil)
}
