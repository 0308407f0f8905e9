package machine

import (
	"math"
	"testing"
	"time"
	"unsafe"
)

// sleepKernel is a kernel whose one trap sleeps for R0 through its wait
// layer; it keeps its wait records by PID, dropping a record at exit.
type sleepKernel struct {
	waits *Waits
	recs  map[PID]*Wait
}

func (k *sleepKernel) HandleTrap(pid PID, f *Frame) Disposition {
	return k.waits.Sleep(k.recs[pid], time.Duration(f.R[0]))
}

func (k *sleepKernel) OnProcExit(pid PID, _ ExitInfo) {
	k.waits.End(k.recs[pid])
	delete(k.recs, pid)
}

func newSleepBoard(t testing.TB) (*Machine, *sleepKernel) {
	m := New(Config{})
	t.Cleanup(m.Shutdown)
	k := &sleepKernel{recs: make(map[PID]*Wait)}
	k.waits = NewWaits(m.Engine(), func(pid PID) *Wait { return k.recs[pid] }, WaitNone, nil, nil)
	m.Engine().SetHandler(k)
	return m, k
}

// spawnSleeper starts a process that sleeps d once per loop, counting
// its wake-ups.
func spawnSleeper(t testing.TB, m *Machine, k *sleepKernel, d time.Duration, woke *int) PID {
	p, err := m.Engine().Spawn("sleeper", 1, func(ctx *Context) {
		for {
			ctx.Frame().R[0] = uint64(d)
			ctx.Trap(1)
			*woke++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.recs[p.PID()] = &Wait{PID: p.PID()}
	return p.PID()
}

func TestDeadlineSaturates(t *testing.T) {
	c := NewClock()
	c.advance(Time(time.Second))
	c.After(time.Duration(math.MaxInt64), func() {})
	if at, _ := c.nextDeadline(); at != maxTime {
		t.Fatalf("deadline of the longest wait = %v, want the latest instant", at)
	}
	c.AfterToken(time.Duration(math.MaxInt64), func(PID, uint64) {}, 1, 1)
	if c.hasDue() {
		t.Fatal("a saturated deadline is due")
	}
	c.After(-time.Millisecond, func() {})
	if at, _ := c.nextDeadline(); at != Time(999*time.Millisecond) || !c.hasDue() {
		t.Fatalf("negative wait: deadline %v, due %v; want 999ms, due at once", at, c.hasDue())
	}
}

// TestRunHorizonSaturates runs a board for the longest duration there is
// from past its start: the horizon saturates instead of wrapping into the
// past, so the run goes on until the sleeper has woken and exited.
func TestRunHorizonSaturates(t *testing.T) {
	m, _ := newTestBoard(t)
	mustSpawn(t, m.Engine(), "sleeper", 7, func(ctx *Context) {
		sleep(ctx, time.Second)
		sleep(ctx, time.Second)
	})
	m.Run(1500 * time.Millisecond)
	res := m.Run(time.Duration(math.MaxInt64))
	if res.Reason != StopAllExited || res.Now < Time(2*time.Second) {
		t.Fatalf("Run(max) = %v at %v, want %v after the second sleep", res.Reason, res.Now, StopAllExited)
	}
}

// TestTimerSizeClass keeps a timer, with the process it wakes, in the
// 64-byte allocation class: a fork bomb's children keep one each pending.
func TestTimerSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(timer{}); n > 64 {
		t.Fatalf("timer is %d B, want at most 64", n)
	}
}

// TestWaitsCurrentGuard checks the one staleness guard: a token names one
// wait, a wake ends it, and a dead process has no current wait.
func TestWaitsCurrentGuard(t *testing.T) {
	m, k := newSleepBoard(t)
	var woke int
	pid := spawnSleeper(t, m, k, time.Hour, &woke)
	m.Run(time.Millisecond)
	r := k.recs[pid]
	token := r.token
	if k.waits.Current(pid, token, WaitSleep) != r {
		t.Fatal("the current sleep is not current")
	}
	if k.waits.Current(pid, token, WaitNet) != nil || k.waits.Current(pid, token-1, WaitSleep) != nil {
		t.Fatal("a wait in another phase, or an older wait, is current")
	}
	k.waits.Wake(r, nil)
	if r.Phase != WaitNone || k.waits.Current(pid, token, WaitSleep) != nil {
		t.Fatal("a woken wait is still current")
	}
	m.Run(2 * time.Millisecond)
	if woke != 1 {
		t.Fatalf("woke %d times, want 1", woke)
	}
	token = r.token
	if err := m.Engine().Kill(pid); err != nil {
		t.Fatal(err)
	}
	if k.waits.Current(pid, token, WaitSleep) != nil {
		t.Fatal("a dead process has a current wait")
	}
}

// TestSleepWakeZeroAlloc gates the sleep and wake path, which a fork
// bomb's thousands of parked children take every loop, at no allocation.
func TestSleepWakeZeroAlloc(t *testing.T) {
	m, k := newSleepBoard(t)
	var woke int
	for range 4 {
		spawnSleeper(t, m, k, time.Millisecond, &woke)
	}
	m.Run(10 * time.Millisecond)
	if allocs := testing.AllocsPerRun(100, func() { m.Run(10 * time.Millisecond) }); allocs != 0 {
		t.Fatalf("sleep and wake allocate %.1f times per 40 wake-ups, want 0", allocs)
	}
}
