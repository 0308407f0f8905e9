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
		self.phase = phaseNetBlocked
		self.waitToken++
		token := self.waitToken
		pid := self.pid
		stack.WaitConn(l, func() {
			e := k.live(pid)
			if e != self || e.waitToken != token || e.phase != phaseNetBlocked {
				return
			}
			conn, acceptErr := stack.Accept(l)
			e.phase = phaseIdle
			if acceptErr == nil {
				e.frame.R[0] = uint64(e.addConn(conn))
			}
			k.wake(e, acceptErr)
		})
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
		self.phase = phaseNetBlocked
		self.waitToken++
		token := self.waitToken
		pid := self.pid
		stack.WaitReadable(conn, func() {
			e := k.live(pid)
			if e != self || e.waitToken != token || e.phase != phaseNetBlocked {
				return
			}
			e.phase = phaseIdle
			data, readErr := stack.BoardRead(conn, maxBytes)
			e.frame.Buf = data
			k.wake(e, readErr)
		})
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

// wake writes err into the error slot of e, a process blocked in a trap
// whose reply the caller has written into its frame, and readies it.
// Failure is a kernel invariant violation.
func (k *Kernel) wake(e *procEntry, err error) {
	e.frame.Err = err
	if err := k.m.Engine().Ready(e.pid); err != nil {
		panic(fmt.Sprintf("minix: Ready(%d): %v", e.pid, err))
	}
}
