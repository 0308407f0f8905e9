package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"iter"
)

// EventList is a compact, read-only list of security events: what an attack
// report keeps of its board's ring after the board is gone. The events are
// delta-encoded into one exact-size, pointer-free byte slice. Each event is
// an instant and four ids, one into a table of the (platform, kind,
// mechanism, denied) tuples the list's events share and three into one
// string table for source, target and detail; an event stores only the ids
// and the time step that differ from the event before it (see
// appendEvent). A periodic denial therefore costs one byte, a campaign's
// retained events cost the garbage collector nothing to scan, and memory
// scales with distinct strings, not with string headers per event. Events
// are decoded and resolved on demand: All, MarshalJSON. The zero EventList
// is empty and marshals as null, like a nil slice.
type EventList struct {
	n     int
	enc   []byte
	heads []eventHead
	strs  []string
}

// eventHead is the part of an event that few distinct values cover.
type eventHead struct {
	Platform  string
	Kind      EventKind
	Mechanism Mechanism
	Denied    bool
}

// An event's ids, indices into eventRec.ids.
const (
	idHead = iota
	idSrc
	idDst
	idDetail
	numIDs
)

// eventRec is one event of an EventList as the codec sees it: its instant
// and its ids into the list's tables.
type eventRec struct {
	At  Time
	ids [numIDs]uint32
}

// eventCursor is the codec's state between events: the previous event and
// its time step. The zero cursor precedes a list's first event.
type eventCursor struct {
	prev eventRec
	step Time
}

// eventStepFlag in an event's flag byte means its time step differs from
// the previous event's and follows the ids; bit i < numIDs means id i
// differs and follows.
const eventStepFlag = 1 << numIDs

// appendEvent appends r encoded against the cursor and advances it: a flag
// byte, uvarint(id) for each id that differs from the previous event's, then
// zigzag(At − prev At) if that step differs from the previous step. The
// step may be zero or negative: nothing assumes instants are monotone.
func appendEvent(b []byte, r eventRec, c *eventCursor) []byte {
	step := r.At - c.prev.At
	var flag byte
	for i, id := range r.ids {
		if id != c.prev.ids[i] {
			flag |= 1 << i
		}
	}
	if step != c.step {
		flag |= eventStepFlag
	}
	b = append(b, flag)
	for i, id := range r.ids {
		if flag&(1<<i) != 0 {
			b = binary.AppendUvarint(b, uint64(id))
		}
	}
	if flag&eventStepFlag != 0 {
		b = binary.AppendVarint(b, int64(step))
	}
	c.prev, c.step = r, step
	return b
}

// decodeEvent reads the event appendEvent encoded from the front of b into
// the cursor's prev and returns the rest of b.
func decodeEvent(b []byte, c *eventCursor) []byte {
	flag := b[0]
	b = b[1:]
	for i := range c.prev.ids {
		if flag&(1<<i) != 0 {
			id, n := binary.Uvarint(b)
			c.prev.ids[i], b = uint32(id), b[n:]
		}
	}
	if flag&eventStepFlag != 0 {
		step, n := binary.Varint(b)
		c.step, b = Time(step), b[n:]
	}
	c.prev.At += c.step
	return b
}

// Denied returns the retained denied events, oldest first, as an EventList.
// The events are encoded once into a scratch buffer and the list keeps an
// exact-size copy; the intern tables are local to the call.
func (l *EventLog) Denied() EventList {
	if l == nil {
		return EventList{}
	}
	var out EventList
	var scratch []byte
	var c eventCursor
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
			r := eventRec{At: e.At, ids: [numIDs]uint32{hid, intern(e.Src), intern(e.Dst), intern(e.Detail)}}
			scratch = appendEvent(scratch, r, &c)
			out.n++
		}
	}
	if out.n == 0 {
		return EventList{}
	}
	out.enc = make([]byte, len(scratch))
	copy(out.enc, scratch)
	return out
}

// Len reports the number of events in the list.
func (l EventList) Len() int { return l.n }

// All yields the events in order, decoding and resolving each as it goes.
func (l EventList) All() iter.Seq[SecurityEvent] {
	return func(yield func(SecurityEvent) bool) {
		var c eventCursor
		for b := l.enc; len(b) > 0; {
			b = decodeEvent(b, &c)
			r := &c.prev
			h := l.heads[r.ids[idHead]]
			e := SecurityEvent{At: r.At, Platform: h.Platform, Kind: h.Kind, Mechanism: h.Mechanism,
				Denied: h.Denied, Src: l.strs[r.ids[idSrc]], Dst: l.strs[r.ids[idDst]],
				Detail: l.strs[r.ids[idDetail]]}
			if !yield(e) {
				return
			}
		}
	}
}

// MarshalJSON encodes the list exactly as the resolved []SecurityEvent
// encodes, null when empty, writing each event into the output as it is
// decoded.
func (l EventList) MarshalJSON() ([]byte, error) {
	if l.n == 0 {
		return []byte("null"), nil
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	b.WriteByte('[')
	for e := range l.All() {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		if err := enc.Encode(e); err != nil {
			return nil, err
		}
		b.Truncate(b.Len() - 1) // Encode ends each value with a newline
	}
	b.WriteByte(']')
	return b.Bytes(), nil
}
