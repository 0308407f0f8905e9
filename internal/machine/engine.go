package machine

import (
	"errors"
	"fmt"
	"iter"
	"time"

	"mkbas/internal/obs"
	"mkbas/internal/perf"
)

// Disposition tells the engine what to do with a process after its trap has
// been handled.
type Disposition int

const (
	// DispositionContinue delivers the reply and returns the process to the
	// ready queue.
	DispositionContinue Disposition = iota + 1
	// DispositionBlock parks the process; the kernel must later wake it with
	// Engine.Ready (typically from another process's trap or a timer).
	DispositionBlock
)

// TrapHandler is the kernel personality of a board. Exactly one handler is
// attached to an Engine; it receives every trap and every process exit.
//
// Handlers run on the engine's single thread of control (see Engine) and may
// call back into the engine (Spawn, Ready, Kill, clock scheduling)
// synchronously. A handler that kills the trapping process during HandleTrap
// may return any disposition; the engine notices the death and discards the
// reply.
type TrapHandler interface {
	// HandleTrap processes one system call from process pid.
	HandleTrap(pid PID, req any) (reply any, disposition Disposition)
	// OnProcExit is invoked after a process dies for any reason (return,
	// crash, kill). It runs before the next dispatch, so kernels can clean up
	// or restart drivers (reincarnation) deterministically.
	OnProcExit(pid PID, info ExitInfo)
}

// StopReason explains why Engine.Run returned.
type StopReason int

const (
	// StopDeadline means virtual time reached the requested horizon.
	StopDeadline StopReason = iota + 1
	// StopAllExited means no live processes remain.
	StopAllExited
	// StopIdle means live processes exist but all are blocked and no timers
	// are pending: the board is deadlocked.
	StopIdle
)

// String returns a short description of the stop reason.
func (r StopReason) String() string {
	switch r {
	case StopDeadline:
		return "deadline"
	case StopAllExited:
		return "all-exited"
	case StopIdle:
		return "idle-deadlock"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// RunResult summarises one Engine.Run call.
type RunResult struct {
	Reason StopReason
	Now    Time
}

// Costs models the virtual-time price of kernel entry and context switching.
// These drive the E4 overhead experiments: a microkernel IPC round trip pays
// several traps and switches, a monolithic syscall pays one.
type Costs struct {
	// Trap is charged on every kernel entry.
	Trap time.Duration
	// Switch is charged whenever a different process is dispatched than the
	// one that ran last.
	Switch time.Duration
}

// DefaultCosts approximate an ARM Cortex-A8 class controller: half a
// microsecond per kernel entry, one microsecond per context switch.
func DefaultCosts() Costs {
	return Costs{Trap: 500 * time.Nanosecond, Switch: time.Microsecond}
}

// Stats aggregates board-level accounting.
type Stats struct {
	Traps           int64
	ContextSwitches int64
	Spawns          int64
	Exits           int64
	KernelTime      time.Duration
}

// numPriorities bounds process priority levels; 0 is most urgent.
const numPriorities = 16

// pidRing is a growable FIFO ring buffer of PIDs — one per priority band.
// Push and pop are O(1) and allocation-free once the ring has grown to the
// band's working-set size; remove is O(n) but only runs on kill paths. The
// backing array is always a power of two so index wrap is a mask.
type pidRing struct {
	buf  []PID
	head int
	n    int
}

// push appends pid at the tail.
func (r *pidRing) push(pid PID) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = pid
	r.n++
}

// pop removes and returns the head. Callers must check n > 0 first.
func (r *pidRing) pop() PID {
	pid := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return pid
}

// remove deletes the first occurrence of pid, preserving FIFO order of the
// remaining entries, and reports whether it was present.
func (r *pidRing) remove(pid PID) bool {
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		if r.buf[(r.head+i)&mask] != pid {
			continue
		}
		for j := i; j < r.n-1; j++ {
			r.buf[(r.head+j)&mask] = r.buf[(r.head+j+1)&mask]
		}
		r.n--
		return true
	}
	return false
}

// grow doubles the backing array (minimum 8), unwrapping the ring to the
// front of the new array.
func (r *pidRing) grow() {
	size := 2 * len(r.buf)
	if size < 8 {
		size = 8
	}
	next := make([]PID, size)
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		next[i] = r.buf[(r.head+i)&mask]
	}
	r.buf, r.head = next, 0
}

// Engine schedules simulated processes over a virtual clock and routes their
// traps to the attached kernel. Every process body runs as an iter.Pull
// coroutine, and Run is the only dispatcher: it resumes the process the
// scheduler picked and waits until that process yields or ends. At any
// instant exactly one of them — Run, or one process — executes, and only it
// touches engine, clock, or kernel state. Traps are therefore plain function
// calls: Context.Trap runs the kernel handler and the scheduler inline, and
// returns straight to the caller when it is the next runnable process. Only
// a switch to a different process records the decision and yields to Run.
// A coroutine switch never enters the Go scheduler, and it is a
// synchronisation edge for the race detector, which keeps the design
// race-clean.
type Engine struct {
	clock   *Clock
	handler TrapHandler
	costs   Costs

	// procs is the dense process table, indexed by PID-1 (PIDs are assigned
	// from 1, monotonically, and PCBs are never removed).
	procs   []*Proc
	ready   [numPriorities]pidRing
	nextPID PID
	live    int

	// lastRun drives context-switch accounting.
	lastRun PID

	// Run state. active is the process executing, or the one that last
	// yielded while Run books the next switch (nil between Run calls);
	// until is the horizon of the Run call in progress.
	active *Proc
	until  Time

	// The scheduling decision record: the next process to dispatch, or why
	// the run stops. The process that yields to Run (or ends) records it, and
	// Run executes it. stashValid tells a process unwinding from a kill on
	// its own call stack whether Context.Trap decided before the unwind.
	stashNext    *Proc
	stashStop    RunResult
	stashStopped bool
	stashValid   bool

	stats    Stats
	shutdown bool

	// Metrics series, resolved once at instrument time so the hot path
	// pays one integer add per sample. All are nil-safe: an engine built
	// outside machine.New (unit tests) runs uninstrumented.
	mTraps      *obs.Counter
	mSwitches   *obs.Counter
	mDispatches *obs.Counter
	mSpawns     *obs.Counter
	mExits      *obs.Counter
	mRunQ       *obs.Gauge
	mLive       *obs.Gauge

	// Host-side profiler phases, resolved once like the metrics series above.
	// Both are nil (discarding) until SetProfiler; engine.dispatch is the
	// hottest scope in the whole simulator, so it uses a time-only HotPhase.
	phRun      *perf.Phase
	phDispatch *perf.Phase
}

// NewEngine creates an engine over clock. The handler must be attached with
// SetHandler before the first Spawn.
func NewEngine(clock *Clock, costs Costs) *Engine {
	return &Engine{
		clock:   clock,
		costs:   costs,
		nextPID: 1,
	}
}

// SetHandler attaches the kernel personality. It must be called exactly once,
// before any process is spawned.
func (e *Engine) SetHandler(h TrapHandler) {
	if e.handler != nil {
		panic("machine: SetHandler called twice")
	}
	if h == nil {
		panic("machine: SetHandler with nil handler")
	}
	e.handler = h
}

// setProfiler binds the engine's host-time accounting to a perf profiler.
// Safe to leave unset: the nil phases discard.
func (e *Engine) setProfiler(p *perf.Profiler) {
	e.phRun = p.HotPhase("engine.run")
	e.phDispatch = p.HotPhase("engine.dispatch")
}

// instrument binds the engine's accounting to a metrics registry.
func (e *Engine) instrument(r *obs.Registry) {
	e.mTraps = r.Counter("machine_traps_total")
	e.mSwitches = r.Counter("machine_context_switches_total")
	e.mDispatches = r.Counter("machine_dispatches_total")
	e.mSpawns = r.Counter("machine_spawns_total")
	e.mExits = r.Counter("machine_exits_total")
	e.mRunQ = r.Gauge("machine_run_queue_depth")
	e.mLive = r.Gauge("machine_live_procs")
}

// Clock returns the board clock.
func (e *Engine) Clock() *Clock { return e.clock }

// Stats returns a snapshot of the accounting counters.
func (e *Engine) Stats() Stats { return e.stats }

// lookup returns the PCB for pid, or nil if it never existed.
func (e *Engine) lookup(pid PID) *Proc {
	if pid < 1 || int(pid) > len(e.procs) {
		return nil
	}
	return e.procs[pid-1]
}

// Proc returns the process control block for pid, or nil if it never existed.
func (e *Engine) Proc(pid PID) *Proc { return e.lookup(pid) }

// LiveCount reports the number of processes that have not exited.
func (e *Engine) LiveCount() int { return e.live }

// Procs returns all process control blocks, live and dead, in PID order.
func (e *Engine) Procs() []*Proc {
	out := make([]*Proc, len(e.procs))
	copy(out, e.procs)
	return out
}

// Engine errors.
var (
	ErrNoSuchProc  = errors.New("machine: no such process")
	ErrProcDead    = errors.New("machine: process is dead")
	ErrNotBlocked  = errors.New("machine: process not blocked")
	ErrShutDown    = errors.New("machine: engine shut down")
	ErrBadPriority = errors.New("machine: priority out of range")
)

// Spawn creates a process and enqueues it for its first dispatch. It is
// callable both before Run and from kernel code during a run.
func (e *Engine) Spawn(name string, prio int, body func(ctx *Context)) (*Proc, error) {
	if e.handler == nil {
		panic("machine: Spawn before SetHandler")
	}
	if e.shutdown {
		return nil, ErrShutDown
	}
	if prio < 0 || prio >= numPriorities {
		return nil, fmt.Errorf("%w: %d", ErrBadPriority, prio)
	}
	if body == nil {
		panic("machine: Spawn with nil body")
	}
	p := &Proc{
		pid:    e.nextPID,
		name:   name,
		prio:   prio,
		state:  StateNew,
		engine: e,
		body:   body,
	}
	p.next, p.stop = iter.Pull(p.run)
	e.nextPID++
	e.procs = append(e.procs, p)
	e.live++
	e.stats.Spawns++
	e.mSpawns.Inc()
	e.mLive.Set(int64(e.live))
	e.enqueue(p)
	return p, nil
}

// run is the body of p's coroutine. A body that returns or crashes ends in
// the body-exit "trap", which books the death and records the next
// scheduling decision for Run. A body killed while suspended (Kill or
// Shutdown called stop) unwinds out of its yield and records nothing: its
// killer is still running. A body killed on its own call stack (the kernel
// killed its caller, or a timer killed the process running the scheduler)
// had its exit booked by Kill; once user-level deferred cleanup has
// finished it records the decision, unless Trap made one before the unwind.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	e := p.engine
	var (
		crashed bool
		killed  bool
		pv      any
	)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if _, isKill := r.(killSentinel); isKill {
				killed = true
				return
			}
			crashed = true
			pv = r
		}()
		p.body(&Context{proc: p})
	}()
	if killed {
		if p.selfUnwind && !e.stashValid {
			e.decide(e.schedule())
		}
		return
	}

	// The body returned or crashed: book the exit inline as one more kernel
	// entry, with its trap cost and dispatch count.
	sc := e.trapEnter(p)
	p.state = StateDead
	e.live--
	e.stats.Exits++
	e.mExits.Inc()
	e.mLive.Set(int64(e.live))
	e.handler.OnProcExit(p.pid, ExitInfo{Crashed: crashed, PanicValue: pv})
	sc.End()
	e.decide(e.schedule())
}

// Ready wakes a blocked process, delivering reply as the return value of the
// Trap call it is parked in. Kernels call this from timers or from other
// processes' traps. Waking the currently running process is a programming
// error: return DispositionContinue instead.
func (e *Engine) Ready(pid PID, reply any) error {
	p := e.lookup(pid)
	if p == nil {
		return fmt.Errorf("%w: %d", ErrNoSuchProc, pid)
	}
	switch p.state {
	case StateBlocked:
		p.pendingReply = reply
		p.state = StateReady
		e.enqueue(p)
		return nil
	case StateDead:
		return fmt.Errorf("%w: %d", ErrProcDead, pid)
	default:
		return fmt.Errorf("%w: %d is %v", ErrNotBlocked, pid, p.state)
	}
}

// Kill destroys a process in any live state, including the process whose trap
// is currently being handled. A suspended victim is fully unwound before Kill
// returns: stop makes its pending yield return false (or discards a body that
// never ran). For the process executing this very call (the kernel killing
// its caller, or a timer callback killing the process running the scheduler)
// the exit is booked immediately and the unwind happens when control returns
// to Context.Trap. In both cases the kernel's OnProcExit hook fires with
// Killed set before the next dispatch.
func (e *Engine) Kill(pid PID) error {
	p := e.lookup(pid)
	if p == nil {
		return fmt.Errorf("%w: %d", ErrNoSuchProc, pid)
	}
	if p.state == StateDead {
		return fmt.Errorf("%w: %d", ErrProcDead, pid)
	}
	e.dequeue(p)
	p.state = StateDead
	if p != e.active {
		p.stop()
	}
	e.live--
	e.stats.Exits++
	e.mExits.Inc()
	e.mLive.Set(int64(e.live))
	e.handler.OnProcExit(pid, ExitInfo{Killed: true})
	return nil
}

// Run executes the board until virtual time reaches until, all processes
// exit, or the board deadlocks. It may be called repeatedly to run a
// simulation in slices; all state is preserved between calls.
//
// Run is the engine's one dispatch loop: it switches to the process the
// scheduler picked and resumes its coroutine, which runs until it records
// the next decision — on a trap that switches to another process, or on
// exit. A process body that calls runtime.Goexit ends Run's caller too.
func (e *Engine) Run(until Time) RunResult {
	if e.handler == nil {
		panic("machine: Run before SetHandler")
	}
	if e.shutdown {
		return RunResult{Reason: StopAllExited, Now: e.clock.Now()}
	}
	sc := e.phRun.Begin()
	defer sc.End()
	e.until = until
	e.decide(e.schedule())
	for !e.stashStopped {
		p := e.stashNext
		e.stashNext, e.stashValid = nil, false
		e.switchTo(p)
		p.next()
	}
	e.active = nil
	return e.stashStop
}

// Shutdown kills every live process so no goroutines outlive the simulation.
// The engine is unusable afterwards.
func (e *Engine) Shutdown() {
	for _, p := range e.procs {
		if p.state == StateDead {
			continue
		}
		p.state = StateDead
		e.dequeue(p)
		p.stop()
		e.live--
	}
	e.shutdown = true
}

// fireDueTimers runs every timer whose deadline has passed, in deterministic
// order. Timer callbacks may schedule more timers and wake processes. The
// hasDue guard keeps the common nothing-due case (checked on every trap) to
// one compare; fired timers are recycled before their callback runs so the
// callback can re-arm without allocating.
func (e *Engine) fireDueTimers() {
	for e.clock.hasDue() {
		t := e.clock.popDue()
		if t == nil {
			return
		}
		e.clock.fire(t)
	}
}

// schedule advances the board to its next action: fire due timers, then
// either pick the next ready process or decide why the run stops.
func (e *Engine) schedule() (next *Proc, stop RunResult, stopped bool) {
	for {
		e.fireDueTimers()
		if e.clock.Now() >= e.until {
			return nil, RunResult{Reason: StopDeadline, Now: e.clock.Now()}, true
		}
		if p := e.nextReady(); p != nil {
			return p, RunResult{}, false
		}
		dl, ok := e.clock.nextDeadline()
		switch {
		case ok && dl <= e.until:
			e.clock.advance(dl)
		case ok:
			e.clock.advance(e.until)
			return nil, RunResult{Reason: StopDeadline, Now: e.clock.Now()}, true
		case e.live == 0:
			return nil, RunResult{Reason: StopAllExited, Now: e.clock.Now()}, true
		default:
			return nil, RunResult{Reason: StopIdle, Now: e.clock.Now()}, true
		}
	}
}

// decide records a scheduling decision for Run to execute once the deciding
// process has yielded or ended.
func (e *Engine) decide(next *Proc, stop RunResult, stopped bool) {
	e.stashNext, e.stashStop, e.stashStopped, e.stashValid = next, stop, stopped, true
}

// switchTo books the dispatch of p: context-switch accounting and run state.
// p collects its pending reply when it resumes. Shared by Run and the
// same-process fast path in Context.Trap.
func (e *Engine) switchTo(p *Proc) {
	if e.lastRun != p.pid {
		e.stats.ContextSwitches++
		e.mSwitches.Inc()
		e.charge(e.costs.Switch)
	}
	e.lastRun = p.pid
	p.state = StateRunning
	e.active = p
}

// trapEnter books one kernel entry for p: the dispatch and trap counters and
// the trap cost. The returned scope is the engine.dispatch phase entry; the
// caller ends it when the kernel work for this entry is done. One scope is
// booked per trap and per body exit, which keeps the perf skeleton
// deterministic.
func (e *Engine) trapEnter(p *Proc) perf.Scope {
	sc := e.phDispatch.Begin()
	e.mDispatches.Inc()
	e.stats.Traps++
	p.traps++
	e.mTraps.Inc()
	e.charge(e.costs.Trap)
	return sc
}

// charge advances virtual time by a kernel cost.
func (e *Engine) charge(d time.Duration) {
	if d <= 0 {
		return
	}
	e.stats.KernelTime += d
	e.clock.advance(e.clock.Now().Add(d))
}

// enqueue appends p to its priority's FIFO ready ring. The run-queue depth
// gauge tracks queue mutations incrementally so dispatch never has to walk
// the priority bands.
func (e *Engine) enqueue(p *Proc) {
	e.ready[p.prio].push(p.pid)
	e.mRunQ.Add(1)
}

// dequeue removes p from its ready ring, if present.
func (e *Engine) dequeue(p *Proc) {
	if e.ready[p.prio].remove(p.pid) {
		e.mRunQ.Add(-1)
	}
}

// nextReady pops the next runnable process: highest priority first, FIFO
// within a priority.
func (e *Engine) nextReady() *Proc {
	for prio := 0; prio < numPriorities; prio++ {
		r := &e.ready[prio]
		for r.n > 0 {
			pid := r.pop()
			e.mRunQ.Add(-1)
			p := e.lookup(pid)
			if p != nil && (p.state == StateReady || p.state == StateNew) {
				return p
			}
		}
	}
	return nil
}
