package perf

import (
	"sort"

	"mkbas/internal/obs"
)

// The Chrome host-trace export: the campaign's *host* execution as a
// Perfetto/chrome://tracing timeline — worker goroutines as tracks, shards
// and board-step rounds as slices. It complements obs.Tracer.ChromeTrace,
// which renders one board's *virtual* time: that trace answers "what did the
// simulated system do", this one answers "where did the simulator's
// wall-clock go". Both go through the one encoder, obs.EncodeChrome.

// ChromeTrace renders the retained timeline as Chrome trace-event JSON.
// Tracks become threads, sorted by name for determinism; each tracked scope
// becomes a complete ("X") event with its phase in args, timestamps in host
// microseconds since the profiler was created. Every event, metadata
// included, carries a dur.
//
// normalize replaces host timestamps with each track's event ordinal (1µs
// apart, 1µs long): the result is then a pure function of the recorded event
// sequence — what the golden test compares. A parallel run's inter-track
// interleaving is scheduling-dependent even normalized; byte-stable goldens
// use a single worker.
func (p *Profiler) ChromeTrace(normalize bool) ([]byte, error) {
	var tracks []*Track
	if p != nil {
		p.mu.Lock()
		tracks = append(tracks, p.tracks...)
		p.mu.Unlock()
	}
	sort.Slice(tracks, func(i, j int) bool { return tracks[i].name < tracks[j].name })

	names := make([]string, len(tracks))
	var events []obs.ChromeEvent
	for i, tr := range tracks {
		names[i] = tr.name
		for seq, ev := range tr.events {
			ts, dur := float64(ev.startNs)/1e3, float64(ev.durNs)/1e3
			if normalize {
				ts, dur = float64(seq), 1
			}
			events = append(events, obs.ChromeEvent{
				Name: ev.name,
				Cat:  "host",
				Ts:   ts,
				Dur:  &dur,
				TID:  i + 1,
				Args: map[string]any{"phase": ev.phase},
			})
		}
	}
	var metaDur float64
	return obs.EncodeChrome(names, events, &metaDur)
}
