package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// deniedOf is the reference Denied implements: the ring's events, oldest
// first, filtered by Denied.
func deniedOf(l *EventLog) []SecurityEvent {
	var out []SecurityEvent
	for _, e := range l.Events() {
		if e.Denied {
			out = append(out, e)
		}
	}
	return out
}

func TestEventListJSONMatchesSlice(t *testing.T) {
	clk := &fakeClock{t: 7}
	l := NewEventLog(clk.now, 64)
	l.SetPlatform("sel4")
	l.Emit(SecurityEvent{Kind: EventCapFault, Mechanism: MechCapability, Denied: true, Src: "web"})
	l.Emit(SecurityEvent{Kind: EventKill, Mechanism: MechDAC, Src: "web", Dst: "temp"})
	l.Emit(SecurityEvent{Kind: EventIPCDenied, Mechanism: MechACM, Denied: true, Src: "web", Dst: "heater",
		Detail: `mt<4> & "quoted" \ back`})
	clk.t = 1 << 40
	l.Emit(SecurityEvent{Platform: "linux", Kind: EventKillDenied, Mechanism: MechDAC, Denied: true,
		Src: "wéb ☃", Dst: "tëmp", Detail: "line\nsep tab\t"})
	l.Emit(SecurityEvent{Kind: EventCapFault, Mechanism: MechCapability, Denied: true, Src: "web"})

	type wrapList struct {
		Events EventList
	}
	type wrapSlice struct {
		Events []SecurityEvent
	}
	for _, tc := range []struct {
		name string
		log  *EventLog
	}{
		{"empty", NewEventLog(nil, 4)},
		{"mixed", l},
	} {
		list, want := tc.log.Denied(), deniedOf(tc.log)
		got, err := json.Marshal(list)
		if err != nil {
			t.Fatalf("%s: marshal list: %v", tc.name, err)
		}
		ref, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("%s: marshal slice: %v", tc.name, err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("%s: list JSON\n%s\nwant\n%s", tc.name, got, ref)
		}
		// Reports are exported with MarshalIndent, which re-indents what
		// MarshalJSON returns.
		got, err = json.MarshalIndent(wrapList{list}, "", "  ")
		if err != nil {
			t.Fatalf("%s: indent list: %v", tc.name, err)
		}
		ref, err = json.MarshalIndent(wrapSlice{want}, "", "  ")
		if err != nil {
			t.Fatalf("%s: indent slice: %v", tc.name, err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("%s: indented list JSON\n%s\nwant\n%s", tc.name, got, ref)
		}
	}
}

func TestEventListDeniedAfterWrap(t *testing.T) {
	clk := &fakeClock{}
	l := NewEventLog(clk.now, 8)
	l.SetPlatform("minix")
	srcs := []string{"web", "sensor", "heater"}
	for i := 0; i < 29; i++ {
		clk.t = Time(i)
		l.Emit(SecurityEvent{Kind: EventIPCDenied, Mechanism: MechACM, Denied: i%3 != 0,
			Src: srcs[i%len(srcs)], Dst: srcs[(i+1)%len(srcs)], Detail: string(rune('a' + i%5))})
	}
	if l.Dropped() == 0 {
		t.Fatal("ring did not wrap")
	}
	list, want := l.Denied(), deniedOf(l)
	if list.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", list.Len(), len(want))
	}
	if got := slices.Collect(list.All()); !slices.Equal(got, want) {
		t.Fatalf("All = %+v\nwant %+v", got, want)
	}
	// Every prefix of All is the same prefix of the reference: stopping
	// early leaves nothing half decoded.
	for n := range want {
		var got []SecurityEvent
		for e := range list.All() {
			if len(got) == n {
				break
			}
			got = append(got, e)
		}
		if !slices.Equal(got, want[:n]) {
			t.Fatalf("All stopped after %d = %+v\nwant %+v", n, got, want[:n])
		}
	}
}

func TestEventListIsSnapshot(t *testing.T) {
	clk := &fakeClock{}
	l := NewEventLog(clk.now, 4)
	for i := 0; i < 3; i++ {
		clk.t = Time(i)
		l.Emit(SecurityEvent{Kind: EventCapFault, Mechanism: MechCapability, Denied: true, Src: "web"})
	}
	list := l.Denied()
	before := slices.Collect(list.All())
	for i := 3; i < 12; i++ {
		clk.t = Time(i)
		l.Emit(SecurityEvent{Kind: EventKillDenied, Mechanism: MechDAC, Denied: true, Src: "attacker", Dst: "temp"})
	}
	if after := slices.Collect(list.All()); !slices.Equal(after, before) {
		t.Fatalf("later emits changed the snapshot:\n%+v\nwas\n%+v", after, before)
	}
}

// hasPointers reports whether a value of type t holds anything the garbage
// collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	}
	return false
}

// TestEventListByteBudget gates the codec's size on the shape attack
// campaigns retain most: a full ring of one periodic denial. Every event
// after the second repeats the one before it, so it should cost its flag
// byte alone; the gate leaves room for a few bytes more.
func TestEventListByteBudget(t *testing.T) {
	const capacity = 16384
	for _, period := range []Time{200_000_000, 1_000_000_000} {
		clk := &fakeClock{}
		l := NewEventLog(clk.now, capacity)
		l.SetPlatform("minix")
		for i := 0; i < capacity+1000; i++ {
			clk.t = Time(i) * period
			l.Emit(SecurityEvent{Kind: EventIPCDenied, Mechanism: MechACM, Denied: true,
				Src: "web", Dst: "heater", Detail: "send mt=3 refused by ACM"})
		}
		list := l.Denied()
		if list.Len() != capacity {
			t.Fatalf("period %v: Len = %d, want %d", period, list.Len(), capacity)
		}
		if per := float64(len(list.enc)) / float64(list.Len()); per > 4 {
			t.Errorf("period %v: %d events encode in %d bytes, %.2f B/event, want <= 4",
				period, list.Len(), len(list.enc), per)
		}
		if cap(list.enc) != len(list.enc) {
			t.Errorf("period %v: encoding has cap %d for %d bytes, want exact size",
				period, cap(list.enc), len(list.enc))
		}
	}
	// Only the tables hold pointers, and they grow with distinct values;
	// the per-event storage is the encoding alone.
	rt := reflect.TypeOf(EventList{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		switch f.Name {
		case "heads", "strs":
		case "enc":
			if hasPointers(f.Type.Elem()) {
				t.Errorf("EventList.enc (%s) holds pointers", f.Type)
			}
		default:
			if hasPointers(f.Type) {
				t.Errorf("EventList.%s (%s) holds a pointer", f.Name, f.Type)
			}
		}
	}
}

// TestEventListMatchesOracle drives random event streams through an
// EventLog and checks the encoded list against the reference filter, event
// by event and as JSON. The streams wrap the ring and mix periodic,
// irregular, zero and backward time steps, repeated and fresh strings, and
// long details.
func TestEventListMatchesOracle(t *testing.T) {
	kinds := []EventKind{EventIPCDenied, EventCapFault, EventKillDenied, EventKill, EventForkDenied}
	mechs := []Mechanism{MechACM, MechCapability, MechDAC, MechKernel}
	names := []string{"web", "temp", "heater", "alarm", "sensor", "", "wéb ☃", `q"<&>`}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(300)
		clk := &fakeClock{t: Time(rng.Int63n(1 << 50))}
		l := NewEventLog(clk.now, capacity)
		l.SetPlatform("minix")
		period := Time(1 + rng.Int63n(2_000_000_000))
		for i, n := 0, rng.Intn(4*capacity); i < n; i++ {
			switch r := rng.Intn(10); {
			case r < 5:
				clk.t += period
			case r < 6:
				// the same instant as the event before
			case r < 7:
				clk.t -= Time(rng.Int63n(1 << 40))
			case r < 8:
				clk.t = Time(rng.Uint64())
			default:
				clk.t += Time(rng.Int63n(1 << 20))
			}
			e := SecurityEvent{Kind: kinds[rng.Intn(len(kinds))], Mechanism: mechs[rng.Intn(len(mechs))],
				Denied: rng.Intn(4) != 0, Src: names[rng.Intn(len(names))], Dst: names[rng.Intn(len(names))]}
			if rng.Intn(8) == 0 {
				e.Platform = "linux"
			}
			switch rng.Intn(4) {
			case 0:
				e.Detail = fmt.Sprintf("pid %d", rng.Intn(5000))
			case 1:
				e.Detail = strings.Repeat("long detail \t\x00 ", 1+rng.Intn(200))
			case 2:
				e.Detail = names[rng.Intn(len(names))]
			}
			l.Emit(e)
		}
		list, want := l.Denied(), deniedOf(l)
		if list.Len() != len(want) {
			t.Fatalf("seed %d: Len = %d, want %d", seed, list.Len(), len(want))
		}
		if got := slices.Collect(list.All()); !slices.Equal(got, want) {
			t.Fatalf("seed %d: All differs from the reference\n got %+v\nwant %+v", seed, got, want)
		}
		// MarshalJSON's own bytes, before encoding/json compacts them.
		got, err := list.MarshalJSON()
		if err != nil {
			t.Fatalf("seed %d: marshal list: %v", seed, err)
		}
		ref, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("seed %d: marshal slice: %v", seed, err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("seed %d: list JSON\n%s\nwant\n%s", seed, got, ref)
		}
	}
}
