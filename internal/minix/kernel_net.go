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

func (k *Kernel) doNetListen(self *procEntry, r *netListenReq) (any, machine.Disposition) {
	stack, err := k.netStack(self)
	if err != nil {
		return self.handleOut(0, err), machine.DispositionContinue
	}
	l, err := stack.Listen(r.port)
	if err != nil {
		return self.handleOut(0, err), machine.DispositionContinue
	}
	return self.handleOut(self.addListener(l), nil), machine.DispositionContinue
}

func (k *Kernel) doNetAccept(self *procEntry, r *netAcceptReq) (any, machine.Disposition) {
	stack, err := k.netStack(self)
	if err != nil {
		return self.handleOut(0, err), machine.DispositionContinue
	}
	l, ok := self.listeners[r.listener]
	if !ok {
		return self.handleOut(0, ErrBadHandle), machine.DispositionContinue
	}
	conn, err := stack.Accept(l)
	switch {
	case err == nil:
		return self.handleOut(self.addConn(conn), nil), machine.DispositionContinue
	case errors.Is(err, vnet.ErrWouldBlock):
		self.phase = phaseNetBlocked
		self.waitToken++
		token := self.waitToken
		pid := self.pid
		stack.WaitConn(l, func() {
			e := k.byPID[pid]
			if e != self || e.waitToken != token || e.phase != phaseNetBlocked {
				return
			}
			conn, acceptErr := stack.Accept(l)
			e.phase = phaseIdle
			if acceptErr != nil {
				k.mustReady(pid, e.handleOut(0, acceptErr))
				return
			}
			k.mustReady(pid, e.handleOut(e.addConn(conn), nil))
		})
		return nil, machine.DispositionBlock
	default:
		return self.handleOut(0, err), machine.DispositionContinue
	}
}

func (k *Kernel) doNetRead(self *procEntry, r *netReadReq) (any, machine.Disposition) {
	stack, err := k.netStack(self)
	if err != nil {
		return self.bytesOut(nil, err), machine.DispositionContinue
	}
	conn, ok := self.conns[r.conn]
	if !ok {
		return self.bytesOut(nil, ErrBadHandle), machine.DispositionContinue
	}
	data, err := stack.BoardRead(conn, r.max)
	switch {
	case err == nil:
		return self.bytesOut(data, nil), machine.DispositionContinue
	case errors.Is(err, vnet.ErrWouldBlock):
		self.phase = phaseNetBlocked
		self.waitToken++
		token := self.waitToken
		pid := self.pid
		maxBytes := r.max
		stack.WaitReadable(conn, func() {
			e := k.byPID[pid]
			if e != self || e.waitToken != token || e.phase != phaseNetBlocked {
				return
			}
			e.phase = phaseIdle
			data, readErr := stack.BoardRead(conn, maxBytes)
			k.mustReady(pid, e.bytesOut(data, readErr))
		})
		return nil, machine.DispositionBlock
	default:
		return self.bytesOut(nil, err), machine.DispositionContinue
	}
}

func (k *Kernel) doNetWrite(self *procEntry, r *netWriteReq) (any, machine.Disposition) {
	stack, err := k.netStack(self)
	if err != nil {
		return self.errOut(err), machine.DispositionContinue
	}
	conn, ok := self.conns[r.conn]
	if !ok {
		return self.errOut(ErrBadHandle), machine.DispositionContinue
	}
	return self.errOut(stack.BoardWrite(conn, r.data)), machine.DispositionContinue
}

func (k *Kernel) doNetClose(self *procEntry, r *netCloseReq) (any, machine.Disposition) {
	stack, err := k.netStack(self)
	if err != nil {
		return self.errOut(err), machine.DispositionContinue
	}
	conn, ok := self.conns[r.conn]
	if !ok {
		return self.errOut(ErrBadHandle), machine.DispositionContinue
	}
	delete(self.conns, r.conn)
	stack.BoardClose(conn)
	return self.errOut(nil), machine.DispositionContinue
}

// mustReady wakes a process the kernel knows is blocked; failure is a kernel
// invariant violation.
func (k *Kernel) mustReady(pid machine.PID, reply any) {
	if err := k.m.Engine().Ready(pid, reply); err != nil {
		panic(fmt.Sprintf("minix: Ready(%d): %v", pid, err))
	}
}
