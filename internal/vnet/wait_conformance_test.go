package vnet_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"mkbas/internal/linuxsim"
	"mkbas/internal/machine"
	"mkbas/internal/minix"
	"mkbas/internal/vnet"
)

// This file checks that the three kernels agree on how a process waits in a
// trap and is woken: sleeps, timed receives, and blocked socket traps. Like
// the socket traps, none of it is what the paper varies.

// timedReceive is a kernel's timed receive. listen readies the receiving
// process p0 and returns its timed receive; poke sends p0 one message.
type timedReceive struct {
	listen func(p process) (recv func(d time.Duration) error, err error)
	poke   func(p process) error
}

var minixTimed = &timedReceive{
	listen: func(p process) (func(time.Duration) error, error) {
		api := p.(*minix.API)
		return func(d time.Duration) error {
			_, err := api.ReceiveTimeout(minix.EndpointAny, d)
			return err
		}, nil
	},
	poke: func(p process) error {
		api := p.(*minix.API)
		ep, err := api.Lookup(procName(0))
		if err != nil {
			return err
		}
		return api.SendNB(ep, minix.NewMessage(1))
	},
}

var linuxTimed = &timedReceive{
	listen: func(p process) (func(time.Duration) error, error) {
		api := p.(*linuxsim.API)
		fd, err := api.MQOpen("/q", linuxsim.MQOpenFlags{Create: true, Read: true, Mode: 0o600})
		return func(d time.Duration) error {
			_, err := api.MQReceiveTimeout(fd, d)
			return err
		}, err
	},
	poke: func(p process) error {
		api := p.(*linuxsim.API)
		fd, err := api.MQOpen("/q", linuxsim.MQOpenFlags{Write: true})
		if err != nil {
			return err
		}
		return api.MQSend(fd, []byte("poke"), 0)
	},
}

func TestWaitConformance(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, k netKernel)
		// timed marks a case that needs a timed receive, which seL4 lacks.
		timed bool
	}{
		{name: "sleep wakes at its deadline", run: testSleepDeadline},
		{name: "killed sleeper's timer spares its successor", run: testStaleSleepTimer},
		{name: "early reply does not time out the next receive", run: testTimedReceiveAnsweredEarly, timed: true},
		{name: "killed acceptor not woken by a connection", run: testKilledAcceptor},
		{name: "longest sleep does not wrap", run: testLongestSleep},
	}
	for _, k := range netKernels {
		t.Run(k.name, func(t *testing.T) {
			for _, c := range cases {
				if c.timed && k.timed == nil {
					continue
				}
				t.Run(c.name, func(t *testing.T) { c.run(t, k) })
			}
		})
	}
}

// testSleepDeadline times a sleep on a quiet board: the sleep's deadline is
// d after its trap is charged, and nothing else runs, so the sleeper is
// dispatched at exactly that instant.
func testSleepDeadline(t *testing.T, k netKernel) {
	const d = 1500 * time.Millisecond
	var before, after machine.Time
	m := k.boot(t, nil, func(p process) {
		p.Sleep(time.Millisecond) // let the board's other processes settle
		before = p.Now()
		p.Sleep(d)
		after = p.Now()
	})
	m.Run(time.Minute)
	if want := d + machine.DefaultCosts().Trap; after.Sub(before) != want {
		t.Fatalf("slept %v, want %v (the sleep plus its trap)", after.Sub(before), want)
	}
}

// testStaleSleepTimer kills a sleeper before its timer fires and starts a
// fresh process under its name that sleeps longer: the dead sleeper's
// timer must not wake it.
func testStaleSleepTimer(t *testing.T, k netKernel) {
	runs := 0
	var woke machine.Time
	m := k.boot(t, nil, func(p process) {
		runs++
		if runs == 1 {
			p.Sleep(time.Second)
			t.Error("killed sleeper woke")
			return
		}
		p.Sleep(10 * time.Second)
		woke = p.Now()
	})
	m.Run(500 * time.Millisecond)
	kill(t, m, procName(0))
	start := m.Clock().Now()
	if err := m.respawn(procName(0)); err != nil {
		t.Fatalf("respawn: %v", err)
	}
	m.Run(5 * time.Second)
	if woke != 0 {
		t.Fatalf("successor woke at %v, during its 10s sleep", woke)
	}
	m.Run(20 * time.Second)
	if d := woke.Sub(start); d < 10*time.Second || d > 10*time.Second+time.Millisecond {
		t.Fatalf("successor woke %v after its start, want its own 10s deadline", d)
	}
}

// testTimedReceiveAnsweredEarly answers a 1s timed receive at 100ms, then
// waits in a 5s one: the first receive's timer, due at 1s, must not time
// out the second, which times out at its own deadline.
func testTimedReceiveAnsweredEarly(t *testing.T, k netKernel) {
	var firstErr, secondErr error
	var secondAt machine.Time
	m := k.boot(t, nil,
		func(p process) {
			recv, err := k.timed.listen(p)
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			firstErr = recv(time.Second)
			secondErr = recv(5 * time.Second)
			secondAt = p.Now()
		},
		func(p process) {
			p.Sleep(100 * time.Millisecond)
			if err := k.timed.poke(p); err != nil {
				t.Errorf("poke: %v", err)
			}
		})
	m.Run(20 * time.Second)
	if firstErr != nil {
		t.Fatalf("first timed receive = %v, want the poke", firstErr)
	}
	if !errors.Is(secondErr, k.timeout) {
		t.Fatalf("second timed receive = %v, want %v", secondErr, k.timeout)
	}
	if secondAt < machine.Time(5100*time.Millisecond) {
		t.Fatalf("second timed receive returned at %v, before its own 5s deadline", secondAt)
	}
}

// testKilledAcceptor kills a process blocked in accept. Its listener
// closes with it; a second process binds the port again, and the
// connection that then arrives wakes only the second.
func testKilledAcceptor(t *testing.T, k netKernel) {
	stack := vnet.NewStack()
	accepted := false
	m := k.boot(t, stack,
		func(p process) {
			l, err := p.NetListen(webPort)
			if err != nil {
				t.Errorf("first listen: %v", err)
				return
			}
			p.NetAccept(l)
			t.Error("accept returned in a killed process")
		},
		func(p process) {
			p.Sleep(time.Minute)
			l, err := p.NetListen(webPort)
			if err != nil {
				t.Errorf("second listen: %v", err)
				return
			}
			if _, err := p.NetAccept(l); err != nil {
				t.Errorf("second accept: %v", err)
				return
			}
			accepted = true
		})
	m.Run(10 * time.Millisecond)
	kill(t, m, procName(0))
	m.Run(2 * time.Minute)
	dial(t, stack)
	m.Run(time.Second)
	if !accepted {
		t.Fatal("the connection did not wake the live acceptor")
	}
}

// testLongestSleep sleeps for the longest duration there is: its deadline
// is past any horizon, not wrapped into the past, so the sleeper stays
// blocked.
func testLongestSleep(t *testing.T, k netKernel) {
	woke := 0
	m := k.boot(t, nil, func(p process) {
		p.Sleep(time.Second)
		for range 3 {
			p.Sleep(time.Duration(math.MaxInt64))
			woke++
		}
	})
	m.Run(time.Hour)
	if woke != 0 {
		t.Fatalf("a sleep of %v returned %d times within an hour", time.Duration(math.MaxInt64), woke)
	}
	for _, p := range m.Engine().Procs() {
		if p.Name() == procName(0) && p.State() != machine.StateBlocked {
			t.Fatalf("sleeper is %v, want blocked", p.State())
		}
	}
}
