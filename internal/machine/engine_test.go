package machine

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// toyKernel is a minimal TrapHandler for engine tests. Its traps, with
// their frame registers:
//
//	toySleep R0=d      — block the caller for d of virtual time
//	toyYield           — continue immediately
//	toySend  R0=to S0=v — rendezvous send (blocks until a matching recv)
//	toyRecv  → S0=v    — rendezvous receive (blocks until a matching send)
//	toySpawn S0=name R0=prio → R0=pid — spawn the body registered as name
//	toyKill  R0=pid    — kill a process
type toyKernel struct {
	e *Engine

	// one-slot rendezvous state per receiver
	waitingRecv map[PID]bool
	pendingSend map[PID][]pendingSend

	// bodies are the programs toySpawn can start, by name.
	bodies map[string]func(ctx *Context)

	exits []exitRecord
}

const (
	toySleep uint32 = iota + 1
	toyYield
	toySend
	toyRecv
	toySpawn
	toyKill
)

type pendingSend struct {
	from PID
	v    string
}

type exitRecord struct {
	pid  PID
	info ExitInfo
}

func newToyKernel(e *Engine) *toyKernel {
	k := &toyKernel{
		e:           e,
		waitingRecv: make(map[PID]bool),
		pendingSend: make(map[PID][]pendingSend),
		bodies:      make(map[string]func(ctx *Context)),
	}
	e.SetHandler(k)
	return k
}

func (k *toyKernel) HandleTrap(pid PID, f *Frame) Disposition {
	switch f.Nr {
	case toySleep:
		k.e.Clock().After(time.Duration(f.R[0]), func() {
			// The sleeper may have been killed while asleep.
			if p := k.e.Proc(pid); p != nil && p.State() == StateBlocked {
				if err := k.e.Ready(pid); err != nil {
					panic(err)
				}
			}
		})
		return DispositionBlock
	case toyYield:
		return DispositionContinue
	case toySend:
		to := PID(f.R[0])
		if k.waitingRecv[to] {
			k.waitingRecv[to] = false
			k.e.Proc(to).Frame().S0 = f.S0
			f.Err = k.e.Ready(to)
			return DispositionContinue
		}
		k.pendingSend[to] = append(k.pendingSend[to], pendingSend{from: pid, v: f.S0})
		return DispositionBlock
	case toyRecv:
		if q := k.pendingSend[pid]; len(q) > 0 {
			k.pendingSend[pid] = q[1:]
			f.S0 = q[0].v
			f.Err = k.e.Ready(q[0].from)
			return DispositionContinue
		}
		k.waitingRecv[pid] = true
		return DispositionBlock
	case toySpawn:
		p, err := k.e.Spawn(f.S0, int(f.R[0]), k.bodies[f.S0])
		if err != nil {
			f.Err = err
			return DispositionContinue
		}
		f.R[0] = uint64(p.PID())
		return DispositionContinue
	case toyKill:
		f.Err = k.e.Kill(PID(f.R[0]))
		return DispositionContinue
	default:
		f.Err = fmt.Errorf("toy: unknown trap %d", f.Nr)
		return DispositionContinue
	}
}

// The toy kernel's system-call wrappers.

func sleep(ctx *Context, d time.Duration) {
	ctx.Frame().R[0] = uint64(d)
	ctx.Trap(toySleep)
}

func yield(ctx *Context) { ctx.Trap(toyYield) }

func send(ctx *Context, to PID, v string) error {
	f := ctx.Frame()
	f.R[0], f.S0 = uint64(to), v
	return ctx.Trap(toySend)
}

func recv(ctx *Context) string {
	ctx.Trap(toyRecv)
	return ctx.Frame().S0
}

func spawn(ctx *Context, name string, prio int) (PID, error) {
	f := ctx.Frame()
	f.S0, f.R[0] = name, uint64(prio)
	err := ctx.Trap(toySpawn)
	return PID(f.R[0]), err
}

func kill(ctx *Context, pid PID) error {
	ctx.Frame().R[0] = uint64(pid)
	return ctx.Trap(toyKill)
}

func (k *toyKernel) OnProcExit(pid PID, info ExitInfo) {
	k.exits = append(k.exits, exitRecord{pid: pid, info: info})
}

func newTestBoard(t *testing.T) (*Machine, *toyKernel) {
	t.Helper()
	m := New(Config{})
	k := newToyKernel(m.Engine())
	t.Cleanup(m.Shutdown)
	return m, k
}

func mustSpawn(t *testing.T, e *Engine, name string, prio int, body func(ctx *Context)) *Proc {
	t.Helper()
	p, err := e.Spawn(name, prio, body)
	if err != nil {
		t.Fatalf("Spawn(%q): %v", name, err)
	}
	return p
}

func TestProcBodyRunsAndExits(t *testing.T) {
	m, k := newTestBoard(t)
	ran := false
	p := mustSpawn(t, m.Engine(), "hello", 7, func(ctx *Context) {
		ran = true
	})
	res := m.Run(time.Second)
	if !ran {
		t.Fatal("body never ran")
	}
	if res.Reason != StopAllExited {
		t.Fatalf("Run reason = %v, want %v", res.Reason, StopAllExited)
	}
	if got := p.State(); got != StateDead {
		t.Fatalf("state = %v, want dead", got)
	}
	if len(k.exits) != 1 || k.exits[0].pid != p.PID() {
		t.Fatalf("exits = %+v, want one for pid %d", k.exits, p.PID())
	}
	if k.exits[0].info.Crashed || k.exits[0].info.Killed {
		t.Fatalf("clean exit misreported: %+v", k.exits[0].info)
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	m, _ := newTestBoard(t)
	var woke Time
	mustSpawn(t, m.Engine(), "sleeper", 7, func(ctx *Context) {
		sleep(ctx, 250*time.Millisecond)
		woke = ctx.Now()
	})
	m.Run(time.Second)
	if woke < Time(250*time.Millisecond) {
		t.Fatalf("woke at %v, want >= 250ms", woke)
	}
	if woke > Time(251*time.Millisecond) {
		t.Fatalf("woke at %v, want ~250ms (cost model should add only microseconds)", woke)
	}
}

func TestRendezvousSendRecv(t *testing.T) {
	m, _ := newTestBoard(t)
	e := m.Engine()
	var got string
	recvPID := mustSpawn(t, e, "recv", 7, func(ctx *Context) {
		got = recv(ctx)
	}).PID()
	mustSpawn(t, e, "send", 7, func(ctx *Context) {
		if err := send(ctx, recvPID, "payload"); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	res := m.Run(time.Second)
	if res.Reason != StopAllExited {
		t.Fatalf("Run reason = %v, want all-exited", res.Reason)
	}
	if got != "payload" {
		t.Fatalf("received %v, want payload", got)
	}
}

func TestRendezvousSenderBlocksUntilReceiverReady(t *testing.T) {
	m, _ := newTestBoard(t)
	e := m.Engine()
	var recvAt, sendDone Time
	var recvPID PID
	recvBody := func(ctx *Context) {
		sleep(ctx, 100*time.Millisecond)
		recvAt = ctx.Now()
		recv(ctx)
	}
	recvPID = mustSpawn(t, e, "recv", 7, recvBody).PID()
	mustSpawn(t, e, "send", 7, func(ctx *Context) {
		send(ctx, recvPID, "1")
		sendDone = ctx.Now()
	})
	m.Run(time.Second)
	if sendDone < recvAt {
		t.Fatalf("send completed at %v before receiver ready at %v", sendDone, recvAt)
	}
}

func TestPriorityOrdering(t *testing.T) {
	m, _ := newTestBoard(t)
	e := m.Engine()
	var order []string
	for _, tc := range []struct {
		name string
		prio int
	}{{"low", 9}, {"high", 2}, {"mid", 5}} {
		name := tc.name
		mustSpawn(t, e, name, tc.prio, func(ctx *Context) {
			order = append(order, name)
		})
	}
	m.Run(time.Second)
	want := []string{"high", "mid", "low"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	m, _ := newTestBoard(t)
	e := m.Engine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		mustSpawn(t, e, fmt.Sprintf("p%d", i), 7, func(ctx *Context) {
			order = append(order, i)
		})
	}
	m.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestCrashReportsPanicValue(t *testing.T) {
	m, k := newTestBoard(t)
	mustSpawn(t, m.Engine(), "crasher", 7, func(ctx *Context) {
		panic("boom")
	})
	m.Run(time.Second)
	if len(k.exits) != 1 {
		t.Fatalf("exits = %d, want 1", len(k.exits))
	}
	info := k.exits[0].info
	if !info.Crashed || info.Killed {
		t.Fatalf("info = %+v, want crashed", info)
	}
	if info.PanicValue != "boom" {
		t.Fatalf("panic value = %v, want boom", info.PanicValue)
	}
}

func TestKillBlockedProcess(t *testing.T) {
	m, k := newTestBoard(t)
	e := m.Engine()
	reachedAfter := false
	victim := mustSpawn(t, e, "victim", 7, func(ctx *Context) {
		recv(ctx) // blocks forever
		reachedAfter = true
	})
	mustSpawn(t, e, "killer", 7, func(ctx *Context) {
		yield(ctx) // let victim block first
		if err := kill(ctx, victim.PID()); err != nil {
			t.Errorf("kill: %v", err)
		}
	})
	res := m.Run(time.Second)
	if res.Reason != StopAllExited {
		t.Fatalf("Run reason = %v, want all-exited", res.Reason)
	}
	if reachedAfter {
		t.Fatal("victim continued past kill point")
	}
	var killedInfo *ExitInfo
	for i := range k.exits {
		if k.exits[i].pid == victim.PID() {
			killedInfo = &k.exits[i].info
		}
	}
	if killedInfo == nil || !killedInfo.Killed {
		t.Fatalf("no killed exit for victim: %+v", k.exits)
	}
}

func TestKillSelfDuringTrap(t *testing.T) {
	m, k := newTestBoard(t)
	e := m.Engine()
	after := false
	var selfPID PID
	p := mustSpawn(t, e, "suicide", 7, func(ctx *Context) {
		kill(ctx, selfPID)
		after = true
	})
	selfPID = p.PID()
	res := m.Run(time.Second)
	if res.Reason != StopAllExited {
		t.Fatalf("Run reason = %v, want all-exited", res.Reason)
	}
	if after {
		t.Fatal("process survived killing itself")
	}
	if len(k.exits) != 1 || !k.exits[0].info.Killed {
		t.Fatalf("exits = %+v, want one killed", k.exits)
	}
}

// TestExitBooksOwnDeath ends a blocked process with Exit: it dies like a
// killed one, but the kernel hears of a death that is neither a kill nor a
// crash.
func TestExitBooksOwnDeath(t *testing.T) {
	m, k := newTestBoard(t)
	e := m.Engine()
	p := mustSpawn(t, e, "waiter", 7, func(ctx *Context) { recv(ctx) })
	m.Run(time.Second)
	if err := e.Exit(p.PID()); err != nil {
		t.Fatalf("Exit: %v", err)
	}
	if p.State() != StateDead || len(k.exits) != 1 || k.exits[0].info != (ExitInfo{}) {
		t.Fatalf("state %v, exits %+v; want dead with one plain exit", p.State(), k.exits)
	}
	if err := e.Exit(p.PID()); !errors.Is(err, ErrProcDead) {
		t.Fatalf("second Exit = %v, want %v", err, ErrProcDead)
	}
}

func TestKillDeadProcessFails(t *testing.T) {
	m, _ := newTestBoard(t)
	e := m.Engine()
	p := mustSpawn(t, e, "short", 7, func(ctx *Context) {})
	m.Run(time.Second)
	if err := e.Kill(p.PID()); err == nil {
		t.Fatal("Kill on dead process succeeded, want error")
	}
}

func TestReadyErrors(t *testing.T) {
	m, _ := newTestBoard(t)
	e := m.Engine()
	var readyErr error
	var selfPID PID
	self := mustSpawn(t, e, "self", 7, func(ctx *Context) {
		// The caller is running, not blocked.
		readyErr = e.Ready(selfPID)
	})
	selfPID = self.PID()
	blocked := mustSpawn(t, e, "blocked", 7, func(ctx *Context) { recv(ctx) })
	m.Run(time.Second)
	if !errors.Is(readyErr, ErrNotBlocked) {
		t.Fatalf("Ready(running) = %v, want ErrNotBlocked", readyErr)
	}
	if err := e.Ready(selfPID); !errors.Is(err, ErrProcDead) {
		t.Fatalf("Ready(dead) = %v, want ErrProcDead", err)
	}
	if err := e.Ready(99); !errors.Is(err, ErrNoSuchProc) {
		t.Fatalf("Ready(never spawned) = %v, want ErrNoSuchProc", err)
	}
	if err := e.Ready(blocked.PID()); err != nil {
		t.Fatalf("Ready(blocked) = %v", err)
	}
	if err := e.Ready(blocked.PID()); !errors.Is(err, ErrNotBlocked) {
		t.Fatalf("Ready(already readied) = %v, want ErrNotBlocked", err)
	}
}

// TestTrapClearsErrorSlot pins the frame's in-place reply rule: a trap's
// error slot starts clear, so a kernel writes it only on failure, and a
// failed trap's error does not leak into the next one.
func TestTrapClearsErrorSlot(t *testing.T) {
	m, _ := newTestBoard(t)
	var unknown, next error
	mustSpawn(t, m.Engine(), "p", 7, func(ctx *Context) {
		unknown = ctx.Trap(0)
		next = ctx.Trap(toyYield)
	})
	m.Run(time.Second)
	if unknown == nil || unknown.Error() != "toy: unknown trap 0" {
		t.Fatalf("trap 0 = %v, want toy: unknown trap 0", unknown)
	}
	if next != nil {
		t.Fatalf("yield after a failed trap = %v, want nil", next)
	}
}

func TestSpawnFromRunningProcess(t *testing.T) {
	m, k := newTestBoard(t)
	e := m.Engine()
	var childPID PID
	k.bodies["child"] = func(ctx *Context) { childPID = ctx.PID() }
	var spawned PID
	mustSpawn(t, e, "parent", 7, func(ctx *Context) {
		pid, err := spawn(ctx, "child", 7)
		if err != nil {
			t.Errorf("spawn: %v", err)
		}
		spawned = pid
		if _, err := spawn(ctx, "child", numPriorities); !errors.Is(err, ErrBadPriority) {
			t.Errorf("spawn at a bad priority: err = %v, want ErrBadPriority", err)
		}
	})
	m.Run(time.Second)
	if childPID == NoPID {
		t.Fatal("child never ran")
	}
	if spawned != childPID {
		t.Fatalf("spawn replied pid %d, child ran as %d", spawned, childPID)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m, _ := newTestBoard(t)
	mustSpawn(t, m.Engine(), "waiter", 7, func(ctx *Context) {
		recv(ctx)
	})
	res := m.Run(time.Second)
	if res.Reason != StopIdle {
		t.Fatalf("Run reason = %v, want idle-deadlock", res.Reason)
	}
}

func TestRunInSlicesPreservesState(t *testing.T) {
	m, _ := newTestBoard(t)
	wakes := 0
	mustSpawn(t, m.Engine(), "ticker", 7, func(ctx *Context) {
		for i := 0; i < 5; i++ {
			sleep(ctx, 100*time.Millisecond)
			wakes++
		}
	})
	m.Run(250 * time.Millisecond)
	if wakes != 2 {
		t.Fatalf("after 250ms wakes = %d, want 2", wakes)
	}
	m.Run(10 * time.Second)
	if wakes != 5 {
		t.Fatalf("after full run wakes = %d, want 5", wakes)
	}
}

func TestTimerOrderingDeterministic(t *testing.T) {
	m, _ := newTestBoard(t)
	c := m.Clock()
	var fired []int
	at := c.Now().Add(time.Millisecond)
	for i := 0; i < 10; i++ {
		i := i
		c.At(at, func() { fired = append(fired, i) })
	}
	m.Run(time.Second)
	for i, v := range fired {
		if v != i {
			t.Fatalf("timers fired %v, want scheduling order", fired)
		}
	}
}

func TestContextSwitchAccounting(t *testing.T) {
	m, _ := newTestBoard(t)
	e := m.Engine()
	var a, b PID
	pa := mustSpawn(t, e, "a", 7, func(ctx *Context) {
		recv(ctx)
	})
	a = pa.PID()
	pb := mustSpawn(t, e, "b", 7, func(ctx *Context) {
		send(ctx, a, "1")
	})
	b = pb.PID()
	_ = b
	m.Run(time.Second)
	if e.Stats().ContextSwitches < 2 {
		t.Fatalf("switches = %d, want >= 2", e.Stats().ContextSwitches)
	}
	if e.Stats().Traps < 2 {
		t.Fatalf("traps = %d, want >= 2", e.Stats().Traps)
	}
}

func TestDeterministicReplay(t *testing.T) {
	runOnce := func() (Stats, Time, []string) {
		m := New(Config{Seed: 42})
		e := m.Engine()
		newToyKernel(e)
		defer m.Shutdown()
		var events []string
		var consumerPID PID
		consumer := func(ctx *Context) {
			for i := 0; i < 20; i++ {
				events = append(events, "recv "+recv(ctx))
			}
		}
		consumerPID = mustSpawnNoT(e, "consumer", 6, consumer)
		for w := 0; w < 4; w++ {
			w := w
			mustSpawnNoT(e, fmt.Sprintf("producer%d", w), 7, func(ctx *Context) {
				for i := 0; i < 5; i++ {
					sleep(ctx, time.Duration(w+1)*time.Millisecond)
					send(ctx, consumerPID, fmt.Sprintf("w%d-%d", w, i))
				}
			})
		}
		res := m.Run(10 * time.Second)
		return e.Stats(), res.Now, events
	}
	s1, t1, e1 := runOnce()
	s2, t2, e2 := runOnce()
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	if t1 != t2 {
		t.Fatalf("end time differs: %v vs %v", t1, t2)
	}
	if len(e1) != len(e2) {
		t.Fatalf("event counts differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d differs: %q vs %q", i, e1[i], e2[i])
		}
	}
}

func mustSpawnNoT(e *Engine, name string, prio int, body func(ctx *Context)) PID {
	p, err := e.Spawn(name, prio, body)
	if err != nil {
		panic(err)
	}
	return p.PID()
}

// settledGoroutines returns the goroutine count once it has held still for
// a while. The testing package starts a test as soon as the one before it
// signals that it is done, and that test's goroutine exits only after the
// signal; a baseline taken at once can count it, and it vanishes later as
// if the test under way had unwound it.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); still < 20 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

func TestShutdownUnwindsAllGoroutines(t *testing.T) {
	before := settledGoroutines()
	m := New(Config{})
	e := m.Engine()
	newToyKernel(e)
	for i := 0; i < 8; i++ {
		mustSpawn(t, e, fmt.Sprintf("blocked%d", i), 7, func(ctx *Context) {
			recv(ctx)
		})
	}
	if res := m.Run(time.Second); res.Reason != StopIdle {
		t.Fatalf("Run reason = %v, want idle-deadlock", res.Reason)
	}
	ran := false
	for i := 0; i < 4; i++ {
		mustSpawn(t, e, fmt.Sprintf("new%d", i), 7, func(ctx *Context) { ran = true })
	}
	if got := runtime.NumGoroutine(); got <= before {
		t.Fatalf("goroutines with 12 live processes = %d, want > %d", got, before)
	}
	m.Shutdown()
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("goroutines after Shutdown = %d, want %d", got, before)
	}
	if ran {
		t.Fatal("Shutdown ran a never-dispatched body")
	}
	if _, err := e.Spawn("late", 7, func(ctx *Context) {}); err == nil {
		t.Fatal("Spawn after Shutdown succeeded")
	}
}

func TestTimerKillsTrappingProcessWhileScheduling(t *testing.T) {
	m, k := newTestBoard(t)
	e := m.Engine()
	var victimPID PID
	defers, after, otherRan := 0, false, false
	victim := mustSpawn(t, e, "victim", 7, func(ctx *Context) {
		defer func() { defers++ }()
		// Due within the trap's own cost, so the timer fires inside the
		// scheduler that this very trap runs.
		m.Clock().After(time.Nanosecond, func() {
			if err := e.Kill(victimPID); err != nil {
				t.Errorf("kill: %v", err)
			}
		})
		yield(ctx)
		after = true
	})
	victimPID = victim.PID()
	mustSpawn(t, e, "other", 7, func(ctx *Context) { otherRan = true })
	if res := m.Run(time.Second); res.Reason != StopAllExited {
		t.Fatalf("Run reason = %v, want all-exited", res.Reason)
	}
	if after {
		t.Fatal("victim continued past the kill")
	}
	if defers != 1 {
		t.Fatalf("victim defers ran %d times, want 1", defers)
	}
	if !otherRan {
		t.Fatal("the next ready process never ran")
	}
	if len(k.exits) != 2 || k.exits[0].pid != victimPID || !k.exits[0].info.Killed {
		t.Fatalf("exits = %+v, want victim killed first, then other", k.exits)
	}
}

func TestKillNeverDispatchedProcess(t *testing.T) {
	m, k := newTestBoard(t)
	e := m.Engine()
	ran := false
	victim := mustSpawn(t, e, "victim", 9, func(ctx *Context) { ran = true })
	mustSpawn(t, e, "killer", 2, func(ctx *Context) {
		if err := kill(ctx, victim.PID()); err != nil {
			t.Errorf("kill: %v", err)
		}
	})
	if res := m.Run(time.Second); res.Reason != StopAllExited {
		t.Fatalf("Run reason = %v, want all-exited", res.Reason)
	}
	if ran {
		t.Fatal("killed process's body ran")
	}
	if len(k.exits) != 2 || k.exits[0].pid != victim.PID() || !k.exits[0].info.Killed {
		t.Fatalf("exits = %+v, want victim killed first", k.exits)
	}
}

// BenchmarkContextSwitch times one simulated context switch: two
// same-priority processes alternate yield traps, so every trap hands the
// CPU to the other process. The switch loop must not allocate.
func BenchmarkContextSwitch(b *testing.B) {
	m := New(Config{})
	e := m.Engine()
	newToyKernel(e)
	defer m.Shutdown()
	for i := 0; i < 2; i++ {
		mustSpawnNoT(e, fmt.Sprintf("p%d", i), 7, func(ctx *Context) {
			for {
				yield(ctx)
			}
		})
	}
	// One trap plus one switch of virtual time per iteration.
	// The warm-up dispatches both processes, whose first runs allocate.
	perSwitch := DefaultCosts().Trap + DefaultCosts().Switch
	m.Run(10 * perSwitch)
	if allocs := testing.AllocsPerRun(100, func() { m.Run(8 * perSwitch) }); allocs != 0 {
		b.Fatalf("%v allocations per 8 switches, want 0", allocs)
	}
	start := e.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(time.Duration(b.N) * perSwitch)
	b.StopTimer()
	end := e.Stats()
	traps, switches := end.Traps-start.Traps, end.ContextSwitches-start.ContextSwitches
	if traps != switches || traps < int64(b.N)-1 || traps > int64(b.N)+1 {
		b.Fatalf("b.N=%d: %d traps, %d switches, want one switch per trap", b.N, traps, switches)
	}
}

func TestSpawnValidation(t *testing.T) {
	m, _ := newTestBoard(t)
	if _, err := m.Engine().Spawn("bad", -1, func(ctx *Context) {}); err == nil {
		t.Fatal("negative priority accepted")
	}
	if _, err := m.Engine().Spawn("bad", numPriorities, func(ctx *Context) {}); err == nil {
		t.Fatal("overlarge priority accepted")
	}
}

func TestBusReadWrite(t *testing.T) {
	bus := NewBus()
	dev := &memDevice{regs: map[uint32]uint32{}}
	bus.Attach("dev0", dev)
	if err := bus.Write("dev0", 4, 99); err != nil {
		t.Fatalf("Write: %v", err)
	}
	v, err := bus.Read("dev0", 4)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if v != 99 {
		t.Fatalf("read %d, want 99", v)
	}
	if _, err := bus.Read("nope", 0); err == nil {
		t.Fatal("read from missing device succeeded")
	}
	r, w := bus.IOCount("dev0")
	if r != 1 || w != 1 {
		t.Fatalf("io counts = %d,%d want 1,1", r, w)
	}
}

type memDevice struct{ regs map[uint32]uint32 }

func (d *memDevice) ReadReg(reg uint32) uint32         { return d.regs[reg] }
func (d *memDevice) WriteReg(reg uint32, value uint32) { d.regs[reg] = value }

func TestTraceRingBuffer(t *testing.T) {
	c := NewClock()
	tr := NewTrace(c, 3)
	for i := 0; i < 5; i++ {
		tr.Logf("tag", "line %d", i)
	}
	lines := tr.Lines()
	if len(lines) != 3 {
		t.Fatalf("len = %d, want 3", len(lines))
	}
	if lines[0].Text != "line 2" || lines[2].Text != "line 4" {
		t.Fatalf("ring contents wrong: %v", lines)
	}
	if got := tr.Grep("line 3"); len(got) != 1 {
		t.Fatalf("grep = %v, want 1 hit", got)
	}
}

func TestTraceWraparoundKeepsOrderAcrossManyWraps(t *testing.T) {
	// Regression for the head-index ring: Lines must stay oldest-first no
	// matter where the head sits, including exactly-full and multi-wrap
	// states, and String/Grep must agree with Lines.
	c := NewClock()
	const capacity = 4
	tr := NewTrace(c, capacity)
	for n := 1; n <= 3*capacity+1; n++ {
		tr.Logf("tag", "line %d", n)
		lines := tr.Lines()
		wantLen := n
		if wantLen > capacity {
			wantLen = capacity
		}
		if len(lines) != wantLen {
			t.Fatalf("after %d logs: len = %d, want %d", n, len(lines), wantLen)
		}
		first := n - wantLen + 1
		for i, l := range lines {
			if want := fmt.Sprintf("line %d", first+i); l.Text != want {
				t.Fatalf("after %d logs: lines[%d] = %q, want %q", n, i, l.Text, want)
			}
		}
	}
	if hits := tr.Grep("line 13"); len(hits) != 1 {
		t.Fatalf("grep newest = %v", hits)
	}
	if hits := tr.Grep("line 9"); len(hits) != 0 {
		t.Fatalf("evicted line still greps: %v", hits)
	}
	if !strings.Contains(tr.String(), "line 10") || strings.Contains(tr.String(), "line 9\n") {
		t.Fatalf("String out of sync with ring:\n%s", tr.String())
	}
}

func TestTimeArithmetic(t *testing.T) {
	base := Time(0).Add(time.Second)
	if base.Sub(Time(0)) != time.Second {
		t.Fatalf("Sub wrong: %v", base.Sub(Time(0)))
	}
	if base.String() != "1s" {
		t.Fatalf("String = %q, want 1s", base.String())
	}
}
