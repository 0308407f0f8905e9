package vnet_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mkbas/internal/camkes"
	"mkbas/internal/core"
	"mkbas/internal/linuxsim"
	"mkbas/internal/machine"
	"mkbas/internal/minix"
	"mkbas/internal/sel4"
	"mkbas/internal/vnet"
)

// This file checks that the three kernels agree on socket semantics, the
// part of network I/O the paper does not vary: they differ in who may bind a
// port, not in what the socket traps do once bound.

// process is the socket surface a process sees on every kernel, with Sleep
// and Now to order processes in virtual time.
type process interface {
	NetListen(port vnet.Port) (int32, error)
	NetAccept(listener int32) (int32, error)
	NetRead(conn int32, max int) ([]byte, error)
	NetWrite(conn int32, data []byte) error
	NetClose(conn int32) error
	Sleep(d time.Duration)
	Now() machine.Time
}

// webPort is the port every process may bind.
const webPort vnet.Port = 8080

// netKernel boots one kernel on a fresh board over stack and starts one
// process per body, named p0, p1, ..., each allowed to bind webPort: MINIX
// images with the network privilege, CAmkES components with a capability
// to the port, unprivileged Linux processes.
type netKernel struct {
	name string
	bad  error // the kernel's unknown-handle error
	boot func(t *testing.T, stack *vnet.Stack, bodies ...func(process)) *board
	// timeout is the kernel's timed-receive error, and timed its timed
	// receive; both are nil on seL4, which has none.
	timeout error
	timed   *timedReceive
}

var netKernels = []netKernel{
	{"minix", minix.ErrBadHandle, bootMinix, minix.ErrTimeout, minixTimed},
	{"sel4", sel4.ErrBadHandle, bootCAmkES, nil, nil},
	{"linux", linuxsim.ErrBadFD, bootLinux, linuxsim.ErrTimeout, linuxTimed},
}

// board is a booted kernel's machine. respawn starts a dead process again
// under its name, as a fresh process running the same body.
type board struct {
	*machine.Machine
	respawn func(name string) error
}

func newBoard(t *testing.T) *machine.Machine {
	m := machine.New(machine.Config{})
	t.Cleanup(m.Shutdown)
	return m
}

func procName(i int) string { return fmt.Sprintf("p%d", i) }

// bootMinix boots MINIX with the ACM off: the processes carry no ac_id, and
// these tests exercise the traps behind the access checks.
func bootMinix(t *testing.T, stack *vnet.Stack, bodies ...func(process)) *board {
	m := newBoard(t)
	k, err := minix.Boot(m, core.NewPolicy().Seal(), minix.Config{Net: stack, DisableACM: true})
	if err != nil {
		t.Fatalf("minix.Boot: %v", err)
	}
	spawn := func(name string) error {
		_, err := k.SpawnImage(name, core.NoACID)
		return err
	}
	for i, body := range bodies {
		k.RegisterImage(minix.Image{Name: procName(i), Priority: 7, Net: true, Body: func(api *minix.API) { body(api) }})
		if err := spawn(procName(i)); err != nil {
			t.Fatalf("minix spawn: %v", err)
		}
	}
	return &board{m, spawn}
}

func bootCAmkES(t *testing.T, stack *vnet.Stack, bodies ...func(process)) *board {
	m := newBoard(t)
	asm := &camkes.Assembly{}
	for i, body := range bodies {
		asm.Components = append(asm.Components, &camkes.Component{
			Name:     procName(i),
			Priority: 7,
			NetPorts: []vnet.Port{webPort},
			Run:      func(rt *camkes.Runtime) { body(rt) },
		})
	}
	img, err := camkes.Compile(asm)
	if err != nil {
		t.Fatalf("camkes.Compile: %v", err)
	}
	sys, err := camkes.Build(m, img, asm, camkes.BuildConfig{Net: stack})
	if err != nil {
		t.Fatalf("camkes.Build: %v", err)
	}
	return &board{m, sys.Respawn}
}

func bootLinux(t *testing.T, stack *vnet.Stack, bodies ...func(process)) *board {
	m := newBoard(t)
	k := linuxsim.Boot(m, linuxsim.Config{Net: stack})
	spawn := func(name string) error {
		_, err := k.SpawnImage(name)
		return err
	}
	for i, body := range bodies {
		k.RegisterImage(linuxsim.Image{Name: procName(i), Priority: 7, UID: 1000, GID: 1000, Body: func(api *linuxsim.API) { body(api) }})
		if err := spawn(procName(i)); err != nil {
			t.Fatalf("linux spawn: %v", err)
		}
	}
	return &board{m, spawn}
}

// kill kills the live process named name from outside, as a crash or an
// operator would.
func kill(t *testing.T, m *board, name string) {
	t.Helper()
	for _, p := range m.Engine().Procs() {
		if p.Name() == name && p.State() != machine.StateDead {
			if err := m.Engine().Kill(p.PID()); err != nil {
				t.Fatalf("kill %s: %v", name, err)
			}
			return
		}
	}
	t.Fatalf("no live process %q", name)
}

func dial(t *testing.T, stack *vnet.Stack) vnet.HostConn {
	t.Helper()
	c, err := stack.Dial(webPort)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return c
}

func TestSocketConformance(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, k netKernel)
	}{
		{"echo", testEcho},
		{"unknown handles", testUnknownHandles},
		{"accept woken by dial", testAcceptWokenByDial},
		{"read woken by host close", testReadWokenByHostClose},
		{"port freed when owner killed", testPortFreedOnKill},
	}
	for _, k := range netKernels {
		t.Run(k.name, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) { c.run(t, k) })
			}
		})
	}
}

// TestListenWithoutNetworkAuthority binds a port from a process whose image
// grants no network authority: a MINIX image without the network privilege,
// and a CAmkES component with no port, which traps its listen through the
// empty slot a port's capability would take. Each kernel refuses with its
// own error and books exactly one denied event. Linux has no per-process
// network gate, so its bind succeeds and books nothing.
func TestListenWithoutNetworkAuthority(t *testing.T) {
	cases := []struct {
		name string
		boot func(t *testing.T, stack *vnet.Stack, listen *error) *machine.Machine
		want error
	}{
		{"minix", func(t *testing.T, stack *vnet.Stack, listen *error) *machine.Machine {
			m := newBoard(t)
			k, err := minix.Boot(m, core.NewPolicy().Seal(), minix.Config{Net: stack, DisableACM: true})
			if err != nil {
				t.Fatalf("minix.Boot: %v", err)
			}
			k.RegisterImage(minix.Image{Name: procName(0), Priority: 7, Body: func(api *minix.API) {
				_, *listen = api.NetListen(webPort)
			}})
			if _, err := k.SpawnImage(procName(0), core.NoACID); err != nil {
				t.Fatalf("minix spawn: %v", err)
			}
			return m
		}, minix.ErrNoPrivilege},
		{"sel4", func(t *testing.T, stack *vnet.Stack, listen *error) *machine.Machine {
			m := newBoard(t)
			asm := &camkes.Assembly{Components: []*camkes.Component{{Name: procName(0), Priority: 7,
				Run: func(rt *camkes.Runtime) { _, *listen = rt.API().NetListen(camkes.SlotNetBase) }}}}
			img, err := camkes.Compile(asm)
			if err != nil {
				t.Fatalf("camkes.Compile: %v", err)
			}
			if _, err := camkes.Build(m, img, asm, camkes.BuildConfig{Net: stack}); err != nil {
				t.Fatalf("camkes.Build: %v", err)
			}
			return m
		}, sel4.ErrInvalidCap},
		{"linux", func(t *testing.T, stack *vnet.Stack, listen *error) *machine.Machine {
			return bootLinux(t, stack, func(p process) { _, *listen = p.NetListen(webPort) }).Machine
		}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			listen := errors.New("listen never ran")
			m := c.boot(t, vnet.NewStack(), &listen)
			m.Run(time.Second)
			if c.want == nil && listen != nil || !errors.Is(listen, c.want) {
				t.Fatalf("listen without network authority = %v, want %v", listen, c.want)
			}
			want := 1
			if c.want == nil {
				want = 0
			}
			if n := m.Obs().Events().Denied().Len(); n != want {
				t.Fatalf("listen booked %d denied events, want %d", n, want)
			}
		})
	}
}

// testEcho runs one request/response exchange: the server reads the host's
// bytes, writes them back prefixed, and closes.
func testEcho(t *testing.T, k netKernel) {
	stack := vnet.NewStack()
	m := k.boot(t, stack, func(p process) {
		l, err := p.NetListen(webPort)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		c, err := p.NetAccept(l)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		data, err := p.NetRead(c, 0)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if err := p.NetWrite(c, append([]byte("echo:"), data...)); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := p.NetClose(c); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	m.Run(10 * time.Millisecond)
	host := dial(t, stack)
	if err := host.Write([]byte("ping")); err != nil {
		t.Fatalf("host write: %v", err)
	}
	m.Run(time.Second)
	if got := string(host.ReadAll()); got != "echo:ping" {
		t.Fatalf("host read %q, want echo:ping", got)
	}
	if !host.Closed() {
		t.Fatal("server did not close the connection")
	}
}

// testUnknownHandles calls every handle-taking trap on a handle the process
// does not hold, before and after it binds a port, and on the listener where
// a connection is wanted: each fails with the kernel's own error.
func testUnknownHandles(t *testing.T, k netKernel) {
	stack := vnet.NewStack()
	var errs []error
	try := func(p process, h int32) {
		_, err := p.NetAccept(h)
		errs = append(errs, err)
		_, err = p.NetRead(h, 0)
		errs = append(errs, err)
		errs = append(errs, p.NetWrite(h, []byte("x")))
		errs = append(errs, p.NetClose(h))
	}
	m := k.boot(t, stack, func(p process) {
		try(p, 99)
		l, err := p.NetListen(webPort)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		try(p, 99)
		_, err = p.NetRead(l, 0)
		errs = append(errs, err)
		errs = append(errs, p.NetWrite(l, []byte("x")))
		errs = append(errs, p.NetClose(l))
	})
	m.Run(time.Second)
	if len(errs) != 11 {
		t.Fatalf("got %d trap results, want 11", len(errs))
	}
	for i, err := range errs {
		if !errors.Is(err, k.bad) {
			t.Errorf("trap %d: err = %v, want %v", i, err, k.bad)
		}
	}
}

// testAcceptWokenByDial blocks the server in accept on an empty backlog; a
// host dial wakes it with a fresh connection handle.
func testAcceptWokenByDial(t *testing.T, k netKernel) {
	stack := vnet.NewStack()
	var l, c int32
	accepted := false
	m := k.boot(t, stack, func(p process) {
		var err error
		if l, err = p.NetListen(webPort); err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		if c, err = p.NetAccept(l); err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		accepted = true
	})
	m.Run(time.Second)
	if accepted {
		t.Fatal("accept returned with nothing to accept")
	}
	dial(t, stack)
	m.Run(time.Second)
	if !accepted {
		t.Fatal("dial did not wake the blocked accept")
	}
	if c == l || c == 0 {
		t.Fatalf("accepted handle %d, listener %d: want a fresh handle", c, l)
	}
}

// testReadWokenByHostClose blocks the server in a read with nothing sent; the
// host closing its end wakes it with EOF.
func testReadWokenByHostClose(t *testing.T, k netKernel) {
	stack := vnet.NewStack()
	var data []byte
	var readErr error
	returned := false
	m := k.boot(t, stack, func(p process) {
		l, err := p.NetListen(webPort)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		c, err := p.NetAccept(l)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		data, readErr = p.NetRead(c, 0)
		returned = true
	})
	m.Run(10 * time.Millisecond)
	host := dial(t, stack)
	m.Run(time.Second)
	if returned {
		t.Fatalf("read returned (%q, %v) before the host sent or closed", data, readErr)
	}
	host.Close()
	m.Run(time.Second)
	if !returned {
		t.Fatal("host close did not wake the blocked read")
	}
	if len(data) != 0 || !errors.Is(readErr, vnet.ErrConnClosed) {
		t.Fatalf("read = (%q, %v), want EOF (%v)", data, readErr, vnet.ErrConnClosed)
	}
}

// testPortFreedOnKill kills a server blocked in a read: its connection
// closes, its port unbinds, and a second process binds the same port and
// accepts on it.
func testPortFreedOnKill(t *testing.T, k netKernel) {
	stack := vnet.NewStack()
	var listenErr error
	accepted := false
	m := k.boot(t, stack,
		func(p process) {
			l, err := p.NetListen(webPort)
			if err != nil {
				t.Errorf("first listen: %v", err)
				return
			}
			c, err := p.NetAccept(l)
			if err != nil {
				t.Errorf("first accept: %v", err)
				return
			}
			p.NetRead(c, 0)
			t.Error("read returned in a killed process")
		},
		func(p process) {
			p.Sleep(time.Minute)
			l, err := p.NetListen(webPort)
			if listenErr = err; err != nil {
				return
			}
			if _, err := p.NetAccept(l); err != nil {
				t.Errorf("second accept: %v", err)
				return
			}
			accepted = true
		})
	m.Run(10 * time.Millisecond)
	host := dial(t, stack)
	m.Run(10 * time.Millisecond)
	if host.Closed() {
		t.Fatal("connection closed before its owner died")
	}
	kill(t, m, procName(0))
	if !host.Closed() {
		t.Fatal("the dead owner's connection is still open")
	}
	if _, err := stack.Dial(webPort); !errors.Is(err, vnet.ErrNoListener) {
		t.Fatalf("dial after the owner died: err = %v, want %v", err, vnet.ErrNoListener)
	}
	m.Run(2 * time.Minute)
	if listenErr != nil {
		t.Fatalf("rebinding the dead owner's port: %v", listenErr)
	}
	dial(t, stack)
	m.Run(time.Second)
	if !accepted {
		t.Fatal("the new owner did not accept on the rebound port")
	}
}
