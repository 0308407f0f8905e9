package machine

import "mkbas/internal/obs"

// Refusal is what one distinct refusal books: the counter it bumps, the
// security event it emits, the console line it writes and the error the
// refused call fails with. A kernel's build function makes it once per key.
type Refusal struct {
	// Err is the error the refused call fails with.
	Err error
	// Counter counts the refusal; nil counts nothing.
	Counter *obs.Counter
	// Event is the security event the refusal emits, marked denied.
	Event obs.SecurityEvent
	// Tag and Line are the console line the refusal writes; with no Tag
	// it writes none, and a Line with no Tag is left to the caller: MINIX's
	// PM writes its line through its own trace trap.
	Tag, Line string
}

// Refusals is one kernel's refusal record, written once for every kernel:
// a memo from the kernel's own comparable key, which names everything a
// refusal's text mentions, to the Refusal its build function makes from
// that key on first use. A kernel keeps only its checks and its key type,
// and an attacker repeating a refused call costs no formatting.
type Refusals[K comparable] struct {
	events *obs.EventLog
	trace  *Trace
	build  func(K) Refusal
	memo   map[K]*Refusal
}

// NewRefusals returns the refusal record of the kernel on m, whose build
// function, bound once at boot, makes the Refusal of a key. The memo is made on the
// first refusal: most boards refuse nothing.
func NewRefusals[K comparable](m *Machine, build func(K) Refusal) Refusals[K] {
	return Refusals[K]{events: m.obs.Events(), trace: m.trace, build: build}
}

// Book books one refusal of key: it bumps the counter, emits the event and
// writes the line, in that order, and returns the memoised Refusal.
func (r *Refusals[K]) Book(key K) *Refusal {
	ref := r.memo[key]
	if ref == nil {
		if r.memo == nil {
			r.memo = make(map[K]*Refusal)
		}
		built := r.build(key)
		built.Event.Denied = true
		ref = &built
		r.memo[key] = ref
	}
	if ref.Counter != nil {
		ref.Counter.Inc()
	}
	r.events.Emit(ref.Event)
	if ref.Tag != "" {
		r.trace.Log(ref.Tag, ref.Line)
	}
	return ref
}
