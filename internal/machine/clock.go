package machine

import (
	"fmt"
	"time"
)

// Time is an instant of virtual time, in nanoseconds since boot.
//
// Virtual time is entirely decoupled from wall-clock time: it advances only
// when the Engine charges cycle costs or fast-forwards an idle board to the
// next timer. This makes every simulation deterministic.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts the instant to the duration elapsed since boot.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the instant as a duration since boot, e.g. "2m30s".
func (t Time) String() string { return time.Duration(t).String() }

// timer is a pending callback on the virtual clock. Fired and canceled
// timers return to the clock's free list, so steady-state scheduling (a
// sensor sleeping every tick) allocates nothing; gen guards a recycled
// timer against stale TimerIDs.
type timer struct {
	at  Time
	seq uint64 // tie-breaker so equal deadlines fire in scheduling order
	fn  func()
	gen uint64

	// tfn, when fn is nil, is a token callback: it fires with tok (see
	// AfterToken).
	tfn func(uint64)
	tok uint64

	canceled bool
}

// TimerID identifies a scheduled callback so it can be canceled. The zero
// TimerID is inert.
type TimerID struct {
	t   *timer
	gen uint64
}

// Clock is the virtual time source for one board.
//
// All methods must be called from the engine loop (or while the engine is
// parked between Run calls); the Clock is intentionally not safe for
// concurrent use, because concurrency would destroy determinism.
//
// The timer queue is a hand-rolled binary min-heap over (deadline, seq)
// rather than container/heap: the interface indirection and any-boxing of
// the stdlib adapter are measurable at this call rate (the engine checks the
// queue on every trap).
type Clock struct {
	now    Time
	seq    uint64
	timers []*timer
	free   []*timer
}

// NewClock returns a clock at instant zero with no pending timers.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual instant.
func (c *Clock) Now() Time { return c.now }

// At schedules fn to run at instant at. Deadlines in the past fire at the
// next opportunity. Timers with equal deadlines fire in scheduling order.
func (c *Clock) At(at Time, fn func()) TimerID {
	if fn == nil {
		panic("machine: Clock.At with nil callback")
	}
	t := c.schedule(at)
	t.fn = fn
	return TimerID{t: t, gen: t.gen}
}

// After schedules fn to run d after the current instant.
func (c *Clock) After(d time.Duration, fn func()) TimerID {
	return c.At(c.now.Add(d), fn)
}

// AfterToken schedules fn(token) to run d after the current instant. The
// token travels with the timer rather than in a closure, so a kernel can
// build one wake-up callback per process and re-arm it for every wait
// without allocating: each firing carries the token of the wait that armed
// it, and the callback ignores tokens that no longer match the process's
// current wait.
func (c *Clock) AfterToken(d time.Duration, fn func(token uint64), token uint64) TimerID {
	if fn == nil {
		panic("machine: Clock.AfterToken with nil callback")
	}
	t := c.schedule(c.now.Add(d))
	t.tfn, t.tok = fn, token
	return TimerID{t: t, gen: t.gen}
}

// schedule queues a callback-less timer for instant at, reusing a recycled
// timer when one is free; the caller sets the callback.
func (c *Clock) schedule(at Time) *timer {
	var t *timer
	if n := len(c.free); n > 0 {
		t = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		t.at, t.seq, t.canceled = at, c.seq, false
	} else {
		t = &timer{at: at, seq: c.seq}
	}
	c.seq++
	c.push(t)
	return t
}

// fire runs a popped timer's callback after recycling the timer, so the
// callback can re-arm without allocating.
func (c *Clock) fire(t *timer) {
	fn, tfn, tok := t.fn, t.tfn, t.tok
	c.recycle(t)
	if fn != nil {
		fn()
		return
	}
	tfn(tok)
}

// Cancel prevents a scheduled callback from firing. Canceling an already
// fired or already canceled timer is a no-op (the generation check makes
// this safe even after the timer struct has been recycled).
func (c *Clock) Cancel(id TimerID) {
	if id.t != nil && id.t.gen == id.gen {
		id.t.canceled = true
	}
}

// PendingTimers reports the number of live (not canceled) timers.
func (c *Clock) PendingTimers() int {
	n := 0
	for _, t := range c.timers {
		if !t.canceled {
			n++
		}
	}
	return n
}

// nextDeadline returns the earliest live timer deadline, or ok=false if none.
func (c *Clock) nextDeadline() (Time, bool) {
	for len(c.timers) > 0 {
		if c.timers[0].canceled {
			c.recycle(c.popTop())
		} else {
			return c.timers[0].at, true
		}
	}
	return 0, false
}

// advance moves the clock forward to instant at without firing timers; the
// engine fires due timers itself so that firing interleaves deterministically
// with scheduling. Moving backwards is a programming error.
func (c *Clock) advance(at Time) {
	if at < c.now {
		panic(fmt.Sprintf("machine: clock moving backwards: %v -> %v", c.now, at))
	}
	c.now = at
}

// hasDue reports whether a timer is due at or before the current instant —
// the allocation-free fast path the engine checks on every trap. A canceled
// timer at the head counts as due; popDue disposes of it.
func (c *Clock) hasDue() bool {
	return len(c.timers) > 0 && c.timers[0].at <= c.now
}

// popDue removes and returns the earliest live timer due at or before the
// current instant, or nil if none are due. The caller runs it with fire,
// which returns the timer to the free list.
func (c *Clock) popDue() *timer {
	for len(c.timers) > 0 {
		top := c.timers[0]
		if top.canceled {
			c.recycle(c.popTop())
			continue
		}
		if top.at > c.now {
			return nil
		}
		return c.popTop()
	}
	return nil
}

// recycle returns a popped timer to the free list for reuse by At. Bumping
// the generation invalidates any TimerID still pointing at it.
func (c *Clock) recycle(t *timer) {
	t.fn, t.tfn = nil, nil
	t.gen++
	c.free = append(c.free, t)
}

// less orders timers by (deadline, sequence).
func (c *Clock) less(i, j int) bool {
	if c.timers[i].at != c.timers[j].at {
		return c.timers[i].at < c.timers[j].at
	}
	return c.timers[i].seq < c.timers[j].seq
}

// push inserts t into the heap.
func (c *Clock) push(t *timer) {
	c.timers = append(c.timers, t)
	i := len(c.timers) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			break
		}
		c.timers[i], c.timers[parent] = c.timers[parent], c.timers[i]
		i = parent
	}
}

// popTop removes and returns the heap head.
func (c *Clock) popTop() *timer {
	h := c.timers
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	c.timers = h[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		child := l
		if r < n && c.less(r, l) {
			child = r
		}
		if !c.less(child, i) {
			break
		}
		c.timers[i], c.timers[child] = c.timers[child], c.timers[i]
		i = child
	}
	return top
}
