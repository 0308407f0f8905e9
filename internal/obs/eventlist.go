package obs

import (
	"encoding/json"
	"iter"
)

// EventList is a compact, read-only list of security events: what an attack
// report keeps of its board's ring after the board is gone. Each event is a
// 24-byte record of its instant and four indices, one into a table of the
// (platform, kind, mechanism, denied) tuples the list's events share and
// three into one string table for source, target and detail. The records
// hold no pointer, so a campaign's retained events cost the garbage
// collector nothing to scan and scale with distinct strings, not with string
// headers per event. Strings are resolved on demand: At, All, MarshalJSON.
// The zero EventList is empty and marshals as null, like a nil slice.
type EventList struct {
	recs  []eventRec
	heads []eventHead
	strs  []string
}

// eventRec is one event of an EventList.
type eventRec struct {
	At                     Time
	head, src, dst, detail uint32
}

// eventHead is the part of an event that few distinct values cover.
type eventHead struct {
	Platform  string
	Kind      EventKind
	Mechanism Mechanism
	Denied    bool
}

// Denied returns the retained denied events, oldest first, as an EventList.
// The intern tables are local to the call: the list keeps only its slices,
// and the records slice is sized exactly.
func (l *EventLog) Denied() EventList {
	if l == nil {
		return EventList{}
	}
	n := 0
	for i := range l.events {
		if l.events[i].Denied {
			n++
		}
	}
	if n == 0 {
		return EventList{}
	}
	out := EventList{recs: make([]eventRec, 0, n)}
	heads := make(map[eventHead]uint32)
	strs := make(map[string]uint32)
	intern := func(s string) uint32 {
		id, ok := strs[s]
		if !ok {
			id = uint32(len(out.strs))
			strs[s] = id
			out.strs = append(out.strs, s)
		}
		return id
	}
	for _, part := range [2][]SecurityEvent{l.events[l.head:], l.events[:l.head]} {
		for i := range part {
			e := &part[i]
			if !e.Denied {
				continue
			}
			h := eventHead{Platform: e.Platform, Kind: e.Kind, Mechanism: e.Mechanism, Denied: e.Denied}
			hid, ok := heads[h]
			if !ok {
				hid = uint32(len(out.heads))
				heads[h] = hid
				out.heads = append(out.heads, h)
			}
			out.recs = append(out.recs, eventRec{At: e.At, head: hid,
				src: intern(e.Src), dst: intern(e.Dst), detail: intern(e.Detail)})
		}
	}
	return out
}

// Len reports the number of events in the list.
func (l EventList) Len() int { return len(l.recs) }

// At resolves the i'th event, oldest first.
func (l EventList) At(i int) SecurityEvent {
	r := l.recs[i]
	h := l.heads[r.head]
	return SecurityEvent{At: r.At, Platform: h.Platform, Kind: h.Kind, Mechanism: h.Mechanism,
		Denied: h.Denied, Src: l.strs[r.src], Dst: l.strs[r.dst], Detail: l.strs[r.detail]}
}

// All yields the events in order, resolving each as it goes.
func (l EventList) All() iter.Seq[SecurityEvent] {
	return func(yield func(SecurityEvent) bool) {
		for i := range l.recs {
			if !yield(l.At(i)) {
				return
			}
		}
	}
}

// MarshalJSON encodes the list exactly as the resolved []SecurityEvent
// encodes, null when empty.
func (l EventList) MarshalJSON() ([]byte, error) {
	if len(l.recs) == 0 {
		return []byte("null"), nil
	}
	evs := make([]SecurityEvent, len(l.recs))
	for i := range evs {
		evs[i] = l.At(i)
	}
	return json.Marshal(evs)
}
