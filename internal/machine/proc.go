package machine

import "fmt"

// PID identifies a simulated process on one board. PIDs are engine-level
// identities; kernels layer their own notions (endpoints, ac_ids, Unix pids)
// on top.
type PID int32

// NoPID is the zero PID; valid processes start at 1.
const NoPID PID = 0

// ProcState is the engine-level lifecycle state of a process.
type ProcState int

// Process lifecycle states.
const (
	// StateNew means the coroutine exists but has never been scheduled.
	StateNew ProcState = iota + 1
	// StateReady means the process has a pending trap reply and is waiting
	// for CPU.
	StateReady
	// StateRunning means the process is executing user code; the engine is
	// waiting for its next trap.
	StateRunning
	// StateBlocked means the kernel has parked the process; it owns no CPU
	// and has no pending reply.
	StateBlocked
	// StateDead means the process has exited, crashed, or been killed.
	StateDead
)

// String returns the conventional short name of the state.
func (s ProcState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// killSentinel is the panic value that unwinds a killed process. The body
// wrapper recognises it and treats it as a kill rather than a crash.
type killSentinel struct{}

// ExitInfo describes how a process left the system.
type ExitInfo struct {
	// Crashed is true when the body panicked (a fault, in OS terms).
	Crashed bool
	// Killed is true when the process was destroyed by the kernel.
	Killed bool
	// PanicValue holds the recovered panic value when Crashed is true.
	PanicValue any
}

// Proc is the engine-level process control block. Its fields are laid out
// so that the record, trap frame included, fills a 256-byte allocation: a
// fork bomb keeps thousands of them live.
type Proc struct {
	pid   PID
	prio  int32
	name  string
	state ProcState

	engine *Engine
	body   func(ctx *Context)

	// next resumes the process's coroutine until it yields back to Run or
	// ends; stop unwinds a suspended coroutine (its yield returns false) or
	// discards one that never ran. yield is the coroutine's side of next.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// frame is the process's trap frame: its arguments on the way into the
	// kernel and its reply on the way out.
	frame Frame

	// dying is set (on the process's own coroutine) when the kill unwind
	// starts, so deferred cleanup running during unwinding cannot trap into
	// a kernel that is no longer listening.
	dying bool

	// selfUnwind is set when a kill hit this process on its own call stack
	// (the kernel killed its caller during HandleTrap, or a timer callback
	// killed the process running the scheduler). The unwinding coroutine is
	// still the one executing, so run must record the next scheduling
	// decision once user-level deferred cleanup has finished.
	selfUnwind bool
}

// PID returns the process identifier.
func (p *Proc) PID() PID { return p.pid }

// Name returns the human-readable process name.
func (p *Proc) Name() string { return p.name }

// Priority returns the scheduling priority (lower is more urgent).
func (p *Proc) Priority() int { return int(p.prio) }

// State returns the engine-level lifecycle state.
func (p *Proc) State() ProcState { return p.state }

// Frame returns the process's trap frame. A kernel keeps it to write the
// reply of a trap that blocked before waking the process with Ready.
func (p *Proc) Frame() *Frame { return &p.frame }

// Context is the view of the board a process body receives. All interaction
// with the outside world goes through Trap, which hands control to the
// kernel.
type Context struct {
	proc *Proc
}

// PID returns the identity of the calling process.
func (c *Context) PID() PID { return c.proc.pid }

// Name returns the name of the calling process.
func (c *Context) Name() string { return c.proc.name }

// Now returns the current virtual time. Reading the clock is free; it does
// not trap.
func (c *Context) Now() Time { return c.proc.engine.clock.Now() }

// Frame returns the calling process's trap frame. A system-call wrapper
// writes its arguments into it, calls Trap, and reads the reply from it.
func (c *Context) Frame() *Frame { return &c.proc.frame }

// Trap synchronously invokes the kernel with trap number nr and the
// arguments already in the caller's frame, and returns the frame's error
// slot; the rest of the reply is in the frame. The calling process yields
// the virtual CPU until the kernel schedules it again; from the process's
// perspective the call simply blocks.
//
// Trap is a direct function call: the calling process is the one executing,
// so it runs the kernel handler and the scheduler inline. When the next
// runnable process is the caller itself Trap returns without any switch;
// otherwise it records the decision and yields to Engine.Run, which resumes
// the caller at its next dispatch.
//
// If the process is killed while suspended inside Trap — or kills itself via
// the kernel — the call never returns: the body unwinds via an internal
// panic that the engine recovers. Deferred cleanup that traps during that
// unwinding re-panics immediately — a dead process gets no more system calls.
func (c *Context) Trap(nr uint32) error {
	p := c.proc
	e := p.engine
	if p.dying {
		panic(killSentinel{})
	}
	if e.active != p {
		panic(fmt.Sprintf("machine: trap from %d (%s) while %d running", p.pid, p.name, e.lastRun))
	}
	f := &p.frame
	f.Nr, f.Err = nr, nil
	sc := e.trapEnter()
	disposition := e.handler.HandleTrap(p.pid, f)
	if p.state == StateDead {
		// The kernel killed the calling process while handling its trap;
		// Kill already booked the exit. Unwind before any other process
		// runs; run records the next decision afterwards.
		sc.End()
		p.selfUnwind = true
		p.dying = true
		panic(killSentinel{})
	}
	switch disposition {
	case DispositionContinue:
		p.state = StateReady
		e.enqueue(p)
	case DispositionBlock:
		p.state = StateBlocked
	default:
		panic(fmt.Sprintf("machine: invalid disposition %d", disposition))
	}
	next, stop, stopped := e.schedule()
	if p.state == StateDead {
		// A timer callback killed us while scheduling. Record the decision —
		// nextReady may already have popped the next process — before the
		// unwind, so run leaves it for Run.
		e.decide(next, stop, stopped)
		sc.End()
		p.selfUnwind = true
		p.dying = true
		panic(killSentinel{})
	}
	if next == p {
		// Fast path: the caller is the next runnable process — return
		// without leaving the coroutine.
		e.switchTo(p)
		sc.End()
	} else {
		e.decide(next, stop, stopped)
		sc.End()
		if !p.yield(struct{}{}) {
			p.dying = true
			panic(killSentinel{})
		}
	}
	return f.Err
}
