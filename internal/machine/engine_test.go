package machine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// toyKernel is a minimal TrapHandler for engine tests. It understands:
//
//	sleepReq{d}   — block the caller for d of virtual time
//	yieldReq{}    — continue immediately
//	sendReq{to,v} — rendezvous send (blocks until a matching recv)
//	recvReq{}     — rendezvous receive (blocks until a matching send)
//	spawnReq{...} — spawn a child
//	killReq{pid}  — kill a process
type toyKernel struct {
	e *Engine

	// one-slot rendezvous state per receiver
	waitingRecv map[PID]bool
	pendingSend map[PID][]pendingSend

	exits []exitRecord
}

type (
	sleepReq struct{ d time.Duration }
	yieldReq struct{}
	sendReq  struct {
		to PID
		v  any
	}
	recvReq  struct{}
	spawnReq struct {
		name string
		prio int
		body func(ctx *Context)
	}
	killReq struct{ pid PID }
)

type pendingSend struct {
	from PID
	v    any
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
	}
	e.SetHandler(k)
	return k
}

func (k *toyKernel) HandleTrap(pid PID, req any) (any, Disposition) {
	switch r := req.(type) {
	case sleepReq:
		k.e.Clock().After(r.d, func() {
			// The sleeper may have been killed while asleep.
			if p := k.e.Proc(pid); p != nil && p.State() == StateBlocked {
				if err := k.e.Ready(pid, nil); err != nil {
					panic(err)
				}
			}
		})
		return nil, DispositionBlock
	case yieldReq:
		return nil, DispositionContinue
	case sendReq:
		if k.waitingRecv[r.to] {
			k.waitingRecv[r.to] = false
			if err := k.e.Ready(r.to, r.v); err != nil {
				return err, DispositionContinue
			}
			return nil, DispositionContinue
		}
		k.pendingSend[r.to] = append(k.pendingSend[r.to], pendingSend{from: pid, v: r.v})
		return nil, DispositionBlock
	case recvReq:
		if q := k.pendingSend[pid]; len(q) > 0 {
			k.pendingSend[pid] = q[1:]
			if err := k.e.Ready(q[0].from, nil); err != nil {
				return err, DispositionContinue
			}
			return q[0].v, DispositionContinue
		}
		k.waitingRecv[pid] = true
		return nil, DispositionBlock
	case spawnReq:
		p, err := k.e.Spawn(r.name, r.prio, r.body)
		if err != nil {
			return err, DispositionContinue
		}
		return p.PID(), DispositionContinue
	case killReq:
		return k.e.Kill(r.pid), DispositionContinue
	default:
		return fmt.Errorf("toy: unknown trap %T", req), DispositionContinue
	}
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
		ctx.Trap(sleepReq{d: 250 * time.Millisecond})
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
	var got any
	recvPID := PID(0)
	recv := mustSpawn(t, e, "recv", 7, func(ctx *Context) {
		got = ctx.Trap(recvReq{})
	})
	recvPID = recv.PID()
	mustSpawn(t, e, "send", 7, func(ctx *Context) {
		ctx.Trap(sendReq{to: recvPID, v: "payload"})
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
		ctx.Trap(sleepReq{d: 100 * time.Millisecond})
		recvAt = ctx.Now()
		ctx.Trap(recvReq{})
	}
	recvPID = mustSpawn(t, e, "recv", 7, recvBody).PID()
	mustSpawn(t, e, "send", 7, func(ctx *Context) {
		ctx.Trap(sendReq{to: recvPID, v: 1})
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
		ctx.Trap(recvReq{}) // blocks forever
		reachedAfter = true
	})
	mustSpawn(t, e, "killer", 7, func(ctx *Context) {
		ctx.Trap(yieldReq{}) // let victim block first
		if err, _ := ctx.Trap(killReq{pid: victim.PID()}).(error); err != nil {
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
		ctx.Trap(killReq{pid: selfPID})
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

func TestKillDeadProcessFails(t *testing.T) {
	m, _ := newTestBoard(t)
	e := m.Engine()
	p := mustSpawn(t, e, "short", 7, func(ctx *Context) {})
	m.Run(time.Second)
	if err := e.Kill(p.PID()); err == nil {
		t.Fatal("Kill on dead process succeeded, want error")
	}
}

func TestSpawnFromRunningProcess(t *testing.T) {
	m, _ := newTestBoard(t)
	e := m.Engine()
	childRan := false
	mustSpawn(t, e, "parent", 7, func(ctx *Context) {
		reply := ctx.Trap(spawnReq{name: "child", prio: 7, body: func(ctx *Context) {
			childRan = true
		}})
		if _, ok := reply.(PID); !ok {
			t.Errorf("spawn reply = %v, want PID", reply)
		}
	})
	m.Run(time.Second)
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestDeadlockDetected(t *testing.T) {
	m, _ := newTestBoard(t)
	mustSpawn(t, m.Engine(), "waiter", 7, func(ctx *Context) {
		ctx.Trap(recvReq{})
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
			ctx.Trap(sleepReq{d: 100 * time.Millisecond})
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

func TestTimerCancel(t *testing.T) {
	m, _ := newTestBoard(t)
	c := m.Clock()
	fired := false
	id := c.After(time.Millisecond, func() { fired = true })
	c.Cancel(id)
	m.Run(time.Second)
	if fired {
		t.Fatal("canceled timer fired")
	}
	if c.PendingTimers() != 0 {
		t.Fatalf("pending timers = %d, want 0", c.PendingTimers())
	}
}

func TestContextSwitchAccounting(t *testing.T) {
	m, _ := newTestBoard(t)
	e := m.Engine()
	var a, b PID
	pa := mustSpawn(t, e, "a", 7, func(ctx *Context) {
		ctx.Trap(recvReq{})
	})
	a = pa.PID()
	pb := mustSpawn(t, e, "b", 7, func(ctx *Context) {
		ctx.Trap(sendReq{to: a, v: 1})
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
				v := ctx.Trap(recvReq{})
				events = append(events, fmt.Sprintf("recv %v", v))
			}
		}
		consumerPID = mustSpawnNoT(e, "consumer", 6, consumer)
		for w := 0; w < 4; w++ {
			w := w
			mustSpawnNoT(e, fmt.Sprintf("producer%d", w), 7, func(ctx *Context) {
				for i := 0; i < 5; i++ {
					ctx.Trap(sleepReq{d: time.Duration(w+1) * time.Millisecond})
					ctx.Trap(sendReq{to: consumerPID, v: fmt.Sprintf("w%d-%d", w, i)})
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

func TestShutdownUnwindsAllGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(Config{})
	e := m.Engine()
	newToyKernel(e)
	for i := 0; i < 8; i++ {
		mustSpawn(t, e, fmt.Sprintf("blocked%d", i), 7, func(ctx *Context) {
			ctx.Trap(recvReq{})
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
		ctx.Trap(yieldReq{})
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
		if err, _ := ctx.Trap(killReq{pid: victim.PID()}).(error); err != nil {
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
				ctx.Trap(yieldReq{})
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
