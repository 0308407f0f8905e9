package machine

import (
	"fmt"
	"math"
	"time"
)

// Time is an instant of virtual time, in nanoseconds since boot.
//
// Virtual time is entirely decoupled from wall-clock time: it advances only
// when the Engine charges cycle costs or fast-forwards an idle board to the
// next timer. This makes every simulation deterministic.
type Time int64

// maxTime is the latest instant: a deadline past it saturates here.
const maxTime = Time(math.MaxInt64)

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts the instant to the duration elapsed since boot.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the instant as a duration since boot, e.g. "2m30s".
func (t Time) String() string { return time.Duration(t).String() }

// timer is a pending callback on the virtual clock. Fired timers return to
// the clock's free list, so steady-state scheduling (a sensor sleeping every
// tick) allocates nothing. A timer cannot be canceled: a wait that ends
// before its timeout leaves the timer to fire as a stale-token no-op (see
// Waits).
type timer struct {
	at  Time
	seq uint64 // tie-breaker so equal deadlines fire in scheduling order
	fn  func()

	// tfn, when fn is nil, is a token callback: it fires with pid and tok
	// (see AfterToken).
	tfn func(PID, uint64)
	tok uint64
	pid PID
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
func (c *Clock) At(at Time, fn func()) {
	if fn == nil {
		panic("machine: Clock.At with nil callback")
	}
	c.schedule(at).fn = fn
}

// After schedules fn to run d after the current instant.
func (c *Clock) After(d time.Duration, fn func()) {
	c.At(c.deadline(d), fn)
}

// AfterToken schedules fn(pid, token) to run d after the current instant.
// The process and token travel with the timer rather than in a closure, so
// one callback serves every process of a board and every wait re-arms it
// without allocating: each firing names the process and the wait that
// armed it, and the callback ignores a process that has died or a token
// that no longer names its current wait (see Waits).
func (c *Clock) AfterToken(d time.Duration, fn func(pid PID, token uint64), pid PID, token uint64) {
	if fn == nil {
		panic("machine: Clock.AfterToken with nil callback")
	}
	t := c.schedule(c.deadline(d))
	t.tfn, t.pid, t.tok = fn, pid, token
}

// deadline returns the instant d after now. A deadline past the latest
// instant saturates there rather than wrapping into the past, where it
// would fire at once; a negative d still means a deadline already due.
func (c *Clock) deadline(d time.Duration) Time {
	at := c.now.Add(d)
	if d > 0 && at < c.now {
		return maxTime
	}
	return at
}

// schedule queues a callback-less timer for instant at, reusing a recycled
// timer when one is free; the caller sets the callback.
func (c *Clock) schedule(at Time) *timer {
	var t *timer
	if n := len(c.free); n > 0 {
		t = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		t.at, t.seq = at, c.seq
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
	fn, tfn, pid, tok := t.fn, t.tfn, t.pid, t.tok
	c.recycle(t)
	if fn != nil {
		fn()
		return
	}
	tfn(pid, tok)
}

// nextDeadline returns the earliest timer deadline, or ok=false if none.
func (c *Clock) nextDeadline() (Time, bool) {
	if len(c.timers) == 0 {
		return 0, false
	}
	return c.timers[0].at, true
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
// the allocation-free fast path the engine checks on every trap.
func (c *Clock) hasDue() bool {
	return len(c.timers) > 0 && c.timers[0].at <= c.now
}

// recycle returns a popped timer to the free list for reuse by At.
func (c *Clock) recycle(t *timer) {
	t.fn, t.tfn = nil, nil
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
