package minix

import (
	"errors"
	"fmt"

	"mkbas/internal/machine"
	"mkbas/internal/vnet"
)

// This file holds the kernel's network mediation. In the paper's scenario
// only the web interface process touches the network; the kernel gates
// access with a per-process privilege, and blocking accept/read are built on
// vnet waiter callbacks plus the engine's Ready.

// netStack returns the board network, or an error when the board has none or
// the process lacks the privilege.
func (k *Kernel) netStack(self *procEntry) (*vnet.Stack, error) {
	if k.cfg.Net == nil {
		return nil, fmt.Errorf("%w: board has no network", ErrNoPrivilege)
	}
	if !self.netAccess {
		return nil, fmt.Errorf("%w: network access", ErrNoPrivilege)
	}
	return k.cfg.Net, nil
}

// addListener stores l under a fresh handle, allocating the table on first
// use, and returns the handle.
func (e *procEntry) addListener(l *vnet.Listener) int32 {
	if e.listeners == nil {
		e.listeners = make(map[int32]*vnet.Listener)
	}
	e.nextHandle++
	e.listeners[e.nextHandle] = l
	return e.nextHandle
}

// addConn stores conn under a fresh handle, allocating the table on first
// use, and returns the handle.
func (e *procEntry) addConn(conn *vnet.Conn) int32 {
	if e.conns == nil {
		e.conns = make(map[int32]*vnet.Conn)
	}
	e.nextHandle++
	e.conns[e.nextHandle] = conn
	return e.nextHandle
}

func (k *Kernel) doNetListen(self *procEntry, f *machine.Frame) error {
	stack, err := k.netStack(self)
	if err != nil {
		return err
	}
	l, err := stack.Listen(vnet.Port(f.R[0]))
	if err != nil {
		return err
	}
	f.R[0] = uint64(self.addListener(l))
	return nil
}

func (k *Kernel) doNetAccept(self *procEntry, f *machine.Frame) machine.Disposition {
	stack, err := k.netStack(self)
	if err != nil {
		f.Err = err
		return machine.DispositionContinue
	}
	l, ok := self.listeners[int32(f.R[0])]
	if !ok {
		f.Err = ErrBadHandle
		return machine.DispositionContinue
	}
	conn, err := stack.Accept(l)
	switch {
	case err == nil:
		f.R[0] = uint64(self.addConn(conn))
		return machine.DispositionContinue
	case errors.Is(err, vnet.ErrWouldBlock):
		k.armNet(self, l, nil, 0)
		stack.WaitConn(l, self.onNet, self.waitToken)
		return machine.DispositionBlock
	default:
		f.Err = err
		return machine.DispositionContinue
	}
}

func (k *Kernel) doNetRead(self *procEntry, f *machine.Frame) machine.Disposition {
	stack, err := k.netStack(self)
	if err != nil {
		f.Err = err
		return machine.DispositionContinue
	}
	conn, ok := self.conns[int32(f.R[0])]
	if !ok {
		f.Err = ErrBadHandle
		return machine.DispositionContinue
	}
	maxBytes := int(f.R[1])
	data, err := stack.BoardRead(conn, maxBytes)
	switch {
	case err == nil:
		f.Buf = data
		return machine.DispositionContinue
	case errors.Is(err, vnet.ErrWouldBlock):
		k.armNet(self, nil, conn, maxBytes)
		stack.WaitReadable(conn, self.onNet, self.waitToken)
		return machine.DispositionBlock
	default:
		f.Err = err
		return machine.DispositionContinue
	}
}

func (k *Kernel) doNetWrite(self *procEntry, f *machine.Frame) error {
	stack, err := k.netStack(self)
	if err != nil {
		return err
	}
	conn, ok := self.conns[int32(f.R[0])]
	if !ok {
		return ErrBadHandle
	}
	return stack.BoardWrite(conn, f.Buf)
}

func (k *Kernel) doNetClose(self *procEntry, f *machine.Frame) error {
	stack, err := k.netStack(self)
	if err != nil {
		return err
	}
	h := int32(f.R[0])
	conn, ok := self.conns[h]
	if !ok {
		return ErrBadHandle
	}
	delete(self.conns, h)
	stack.BoardClose(conn)
	return nil
}

// armNet blocks self on the network under a fresh wait token, building its
// network waker on its first blocking accept or read: an accept on l or,
// with l nil, a read of up to max bytes from conn. The caller registers
// onNet with the wait's token.
func (k *Kernel) armNet(self *procEntry, l *vnet.Listener, conn *vnet.Conn, max int) {
	if self.onNet == nil {
		k.buildNetWaker(self)
	}
	self.phase = phaseNetBlocked
	self.waitToken++
	self.netListener, self.netConn, self.netMax = l, conn, max
}

// buildNetWaker builds e's reusable network waker. A firing completes the
// accept or read e blocked in; like the timer callbacks, a firing whose
// token is stale, or whose e is dead, does nothing.
func (k *Kernel) buildNetWaker(e *procEntry) {
	e.onNet = func(token uint64) {
		if k.live(e.pid) != e || e.waitToken != token || e.phase != phaseNetBlocked {
			return
		}
		e.phase = phaseIdle
		var err error
		if l := e.netListener; l != nil {
			var conn *vnet.Conn
			if conn, err = k.cfg.Net.Accept(l); err == nil {
				e.frame.R[0] = uint64(e.addConn(conn))
			}
		} else {
			e.frame.Buf, err = k.cfg.Net.BoardRead(e.netConn, e.netMax)
		}
		e.netListener, e.netConn = nil, nil
		k.wake(e, err)
	}
}

// wake writes err into the error slot of e, a process blocked in a trap
// whose reply the caller has written into its frame, and readies it.
// Failure is a kernel invariant violation.
func (k *Kernel) wake(e *procEntry, err error) {
	e.frame.Err = err
	if err := k.m.Engine().Ready(e.pid); err != nil {
		panic(fmt.Sprintf("minix: Ready(%d): %v", e.pid, err))
	}
}
