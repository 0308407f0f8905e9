package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
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
	for i := range want {
		if list.At(i) != want[i] {
			t.Fatalf("At(%d) = %+v, want %+v", i, list.At(i), want[i])
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

func TestEventRecordIsPointerFree(t *testing.T) {
	rt := reflect.TypeOf(eventRec{})
	if rt.Size() != 24 {
		t.Errorf("eventRec is %d bytes, want 24", rt.Size())
	}
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); hasPointers(f.Type) {
			t.Errorf("eventRec.%s (%s) holds a pointer", f.Name, f.Type)
		}
	}
}
