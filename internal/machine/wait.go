package machine

import (
	"fmt"
	"time"
)

// WaitPhase says what a process blocked in a trap is waiting for. The
// phases below WaitKernel are the ones every kernel shares; a kernel numbers
// its own IPC phases from WaitKernel up.
type WaitPhase uint8

// The shared wait phases.
const (
	// WaitNone means the process is not waiting: it runs, is runnable, or
	// has died.
	WaitNone WaitPhase = iota
	// WaitSleep means the process sleeps until its timer fires.
	WaitSleep
	// WaitNet means the process is blocked in a socket accept or read until
	// the network wakes it.
	WaitNet
	// WaitKernel is the first phase a kernel defines for its own IPC.
	WaitKernel
)

// Wait is a process's wait record: what it is blocked in, and the token of
// that wait. Each kernel embeds one in its process entry. A new wait takes
// a fresh token and a wake ends it, so a timer or a network waker that
// fires with an older token belongs to a finished wait and does nothing.
// The 64-bit token never wraps.
type Wait struct {
	token uint64
	// PID is the process's engine identity, set by the kernel at spawn.
	PID PID
	// Phase is what the process waits for, WaitNone when it does not wait.
	Phase WaitPhase
}

// Waits is one kernel's wait layer: sleep, block with a timeout, block on
// a waker, and wake, written once for every kernel. A kernel builds it at
// boot over its lookup from an engine PID to the wait record of the live
// process under it, nil once the process has died: engine PIDs are never
// reused, so that nil is the liveness check every timer and waker makes.
//
// Each kernel's layer holds the board's two timer callbacks, sleep and
// timeout, bound once: a timer names its process and wait by (PID,
// token), so no process carries a callback of its own.
type Waits struct {
	engine *Engine
	lookup func(PID) *Wait
	// timed is the kernel's phase of a receive that may time out; expire
	// undoes the kernel's side of such a receive when its timer wins, and
	// timeout is the error the receive then fails with.
	timed   WaitPhase
	expire  func(pid PID)
	timeout error

	onSleep, onTimeout func(pid PID, token uint64)
}

// NewWaits returns the wait layer of the kernel on e, over lookup. timed,
// expire and timeout describe the kernel's timed receive (Timeout); expire
// may be nil when a timed-out receive leaves nothing to undo.
func NewWaits(e *Engine, lookup func(PID) *Wait, timed WaitPhase, expire func(pid PID), timeout error) *Waits {
	w := &Waits{engine: e, lookup: lookup, timed: timed, expire: expire, timeout: timeout}
	w.onSleep, w.onTimeout = w.sleepDone, w.timedOut
	return w
}

// Block parks r in phase under a fresh token and returns the token, for a
// waker that later ends the wait through Current.
func (w *Waits) Block(r *Wait, phase WaitPhase) uint64 {
	r.Phase = phase
	r.token++
	return r.token
}

// Sleep parks r for d and returns the trap's disposition; the timer wakes
// it with no error.
func (w *Waits) Sleep(r *Wait, d time.Duration) Disposition {
	w.engine.clock.AfterToken(d, w.onSleep, r.PID, w.Block(r, WaitSleep))
	return DispositionBlock
}

// Timeout arms a deadline d away on r, which the kernel has just parked in
// its timed phase, and returns the trap's disposition. If the wait is
// still current when the timer fires, the kernel's expire hook runs and
// the process wakes with the kernel's timeout error.
func (w *Waits) Timeout(r *Wait, d time.Duration) Disposition {
	w.engine.clock.AfterToken(d, w.onTimeout, r.PID, w.Block(r, r.Phase))
	return DispositionBlock
}

// Current returns the wait record of pid if the process lives, token still
// names its wait, and the wait is in phase; otherwise nil, and the caller,
// a timer or waker of a finished wait, does nothing.
func (w *Waits) Current(pid PID, token uint64, phase WaitPhase) *Wait {
	r := w.lookup(pid)
	if r == nil || r.token != token || r.Phase != phase {
		return nil
	}
	return r
}

// Wake ends r's wait: the process's blocked trap returns err, its reply
// already written into its frame. A process that is not blocked is a
// kernel invariant violation.
func (w *Waits) Wake(r *Wait, err error) {
	w.End(r)
	w.Frame(r).Err = err
	if err := w.engine.Ready(r.PID); err != nil {
		panic(fmt.Sprintf("machine: Ready(%d): %v", r.PID, err))
	}
}

// Frame returns the trap frame of r's process, for the reply of a blocked
// trap that a waker finishes before Wake.
func (w *Waits) Frame(r *Wait) *Frame { return &w.engine.lookup(r.PID).frame }

// End ends r's wait without waking the process, as Wake does before it
// wakes it and a kernel does when the process dies: a timer or waker still
// pending then finds its token stale, even through a pointer the kernel
// keeps.
func (w *Waits) End(r *Wait) {
	r.Phase = WaitNone
	r.token++
}

// sleepDone is the sleep timer: a current sleep wakes.
func (w *Waits) sleepDone(pid PID, token uint64) {
	if r := w.Current(pid, token, WaitSleep); r != nil {
		w.Wake(r, nil)
	}
}

// timedOut is the timed-receive timer: a receive still waiting is undone
// and fails with the kernel's timeout error.
func (w *Waits) timedOut(pid PID, token uint64) {
	r := w.Current(pid, token, w.timed)
	if r == nil {
		return
	}
	if w.expire != nil {
		w.expire(pid)
	}
	w.Wake(r, w.timeout)
}
