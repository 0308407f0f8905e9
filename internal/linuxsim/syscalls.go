package linuxsim

import (
	"errors"
	"fmt"
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/obs"
	"mkbas/internal/vnet"
)

// Trap numbers. Each trap reads its arguments from, and writes its reply
// into, the caller's frame as listed; every trap can fail with an error in
// the frame's error slot.
const (
	trapMQOpen           uint32 = iota + 1 // S0 name, R0 open* flags, R1 mode, R2 max messages → R0 fd
	trapMQSend                             // R0 fd, R1 priority, Buf payload
	trapMQReceive                          // R0 fd → Buf payload, R0 priority
	trapMQReceiveTimeout                   // R0 fd, R1 timeout → as trapMQReceive
	trapMQUnlink                           // S0 name
	trapMQClose                            // R0 fd
	trapKill                               // R0 unix pid, R1 signal
	trapFork                               // S0 image → R0 unix pid
	trapRespawn                            // S0 image → R0 unix pid
	trapGetPID                             // → R0 unix pid
	trapGetUID                             // → R0 uid
	trapSleep                              // R0 duration
	trapDevRead                            // S0 device, R0 register → R0 value
	trapDevWrite                           // S0 device, R0 register, R1 value
	trapTrace                              // S0 tag, S1 text
	trapExit                               // does not return
	trapNetListen                          // R0 port → R0 listener
	trapNetAccept                          // R0 listener → R0 connection
	trapNetRead                            // R0 connection, R1 max → Buf data
	trapNetWrite                           // R0 connection, Buf data
	trapNetClose                           // R0 connection

	trapLimit // one past the highest trap number
)

// HandleTrap implements machine.TrapHandler: it dispatches on the trap
// number, reading the arguments from and writing the reply into f, the
// caller's frame.
func (k *Kernel) HandleTrap(pid machine.PID, f *machine.Frame) machine.Disposition {
	self := k.procOf(pid)
	switch f.Nr {
	case trapMQOpen:
		f.Err = k.doMQOpen(self, f)
	case trapMQSend:
		return k.doMQSend(self, f)
	case trapMQReceive:
		return k.doMQReceive(self, int32(f.R[0]))
	case trapMQReceiveTimeout:
		fd, d := int32(f.R[0]), time.Duration(f.R[1])
		if k.doMQReceive(self, fd) == machine.DispositionContinue {
			return machine.DispositionContinue
		}
		// Blocked: doMQReceive queued the reader; arm the expiry alongside.
		self.waitQ = self.fds[fd].q
		self.waitToken++
		k.m.Clock().AfterToken(d, self.onRecvTimeout, self.waitToken)
		return machine.DispositionBlock
	case trapMQUnlink:
		f.Err = k.doMQUnlink(self, f.S0)
	case trapMQClose:
		fd := int32(f.R[0])
		if _, ok := self.fds[fd]; !ok {
			f.Err = ErrBadFD
			break
		}
		delete(self.fds, fd)
	case trapKill:
		f.Err = k.doKill(self, int(f.R[0]), int(f.R[1]))
	case trapFork:
		img, ok := k.images[f.S0]
		if !ok {
			f.Err = fmt.Errorf("%w: %q", ErrUnknownImage, f.S0)
			break
		}
		// fork/exec inherits the caller's credentials, not the image's
		// declared ones.
		img.UID = self.uid
		img.GID = self.gid
		unixPID, err := k.spawn(img)
		f.R[0], f.Err = uint64(unixPID), err
	case trapRespawn:
		f.Err = k.doRespawn(self, f)
	case trapGetPID:
		f.R[0] = uint64(self.unixPID)
	case trapGetUID:
		f.R[0] = uint64(self.uid)
	case trapSleep:
		self.phase = phaseSleeping
		self.waitToken++
		k.m.Clock().AfterToken(time.Duration(f.R[0]), self.onSleep, self.waitToken)
		return machine.DispositionBlock
	case trapDevRead:
		dev, reg := machine.DeviceID(f.S0), uint32(f.R[0])
		df, ok := k.devs[dev]
		if !ok {
			f.Err = fmt.Errorf("%w: device %q", ErrNoEnt, dev)
			break
		}
		if !allowed(self.uid, self.gid, df.ownerUID, df.ownerGID, df.mode, true, false) {
			k.dacDeny(obs.EventSyscallDenied, self.name, string(dev), fmt.Sprintf("read /dev/%s reg %d", dev, reg))
			f.Err = fmt.Errorf("%w: read %q", ErrPerm, dev)
			break
		}
		v, err := k.m.Bus().Read(dev, reg)
		f.R[0], f.Err = uint64(v), err
	case trapDevWrite:
		dev, reg := machine.DeviceID(f.S0), uint32(f.R[0])
		df, ok := k.devs[dev]
		if !ok {
			f.Err = fmt.Errorf("%w: device %q", ErrNoEnt, dev)
			break
		}
		if !allowed(self.uid, self.gid, df.ownerUID, df.ownerGID, df.mode, false, true) {
			k.dacDeny(obs.EventSyscallDenied, self.name, string(dev), fmt.Sprintf("write /dev/%s reg %d", dev, reg))
			f.Err = fmt.Errorf("%w: write %q", ErrPerm, dev)
			break
		}
		f.Err = k.m.Bus().Write(dev, reg, uint32(f.R[1]))
	case trapTrace:
		k.m.Trace().Log(f.S0, f.S1)
	case trapExit:
		// Kill unwinds the caller: the error slot is read only if it fails.
		f.Err = k.m.Engine().Kill(pid)
	case trapNetListen:
		f.Err = k.doNetListen(self, f)
	case trapNetAccept:
		return k.doNetAccept(self, f)
	case trapNetRead:
		return k.doNetRead(self, f)
	case trapNetWrite:
		conn, ok := self.conns[int32(f.R[0])]
		if !ok {
			f.Err = ErrBadFD
			break
		}
		f.Err = k.cfg.Net.BoardWrite(conn, f.Buf)
	case trapNetClose:
		h := int32(f.R[0])
		conn, ok := self.conns[h]
		if !ok {
			f.Err = ErrBadFD
			break
		}
		delete(self.conns, h)
		k.cfg.Net.BoardClose(conn)
	default:
		f.Err = fmt.Errorf("linuxsim: unknown trap %d", f.Nr)
	}
	return machine.DispositionContinue
}

// doMQOpen implements mq_open with O_CREAT/O_EXCL and access-mode flags.
func (k *Kernel) doMQOpen(self *proc, f *machine.Frame) error {
	name, flags, mode, maxMsgs := f.S0, f.R[0], Mode(f.R[1]), int(f.R[2])
	create, excl := flags&openCreate != 0, flags&openExcl != 0
	read, write := flags&openRead != 0, flags&openWrite != 0
	q, exists := k.mqs[name]
	switch {
	case exists && create && excl:
		return fmt.Errorf("%w: queue %q", ErrExist, name)
	case !exists && !create:
		return fmt.Errorf("%w: queue %q", ErrNoEnt, name)
	case !exists:
		if maxMsgs <= 0 {
			maxMsgs = k.cfg.DefaultMaxMsgs
		}
		q = &mqueue{
			name:     name,
			ownerUID: self.uid,
			ownerGID: self.gid,
			mode:     mode,
			maxMsgs:  maxMsgs,
			depth:    k.reg.Gauge(fmt.Sprintf("linux_mq_depth{queue=%q}", name)),
		}
		k.mqs[name] = q
	}
	if !allowed(self.uid, self.gid, q.ownerUID, q.ownerGID, q.mode, read, write) {
		d := k.denialFor(denialKey{op: "mq_open", src: self.name, queue: name, uid: self.uid, mode: q.mode}, func() denial {
			return denial{
				detail: fmt.Sprintf("mq_open uid=%d mode=%04o", self.uid, q.mode),
				trace:  fmt.Sprintf("DENY mq_open %s by %s (uid %d)", name, self.name, self.uid),
				err:    fmt.Errorf("%w: queue %q", ErrPerm, name),
			}
		})
		k.dacDeny(obs.EventIPCDenied, self.name, name, d.detail)
		k.tracer.Emit(k.edges.Intern(self.name, name, "mq_open"), obs.OutcomeDACDenied)
		k.m.Trace().Log("linux-dac", d.trace)
		return d.err
	}
	self.nextFD++
	handle := self.nextFD
	self.fds[handle] = &fd{q: q, canRead: read, canWrite: write, nonblock: flags&openNonBlock != 0, edges: mqEdges{
		send:      k.edges.Intern(self.name, q.name, "send"),
		recv:      k.edges.Intern(q.name, self.name, "recv"),
		mqSend:    k.edges.Intern(self.name, q.name, "mq_send"),
		mqReceive: k.edges.Intern(self.name, q.name, "mq_receive"),
	}}
	f.R[0] = uint64(handle)
	return nil
}

// getBuf pops a recycled payload buffer (zero length, retained capacity),
// or nil when the pool is empty.
func (k *Kernel) getBuf() []byte {
	if n := len(k.bufPool); n > 0 {
		b := k.bufPool[n-1]
		k.bufPool = k.bufPool[:n-1]
		return b
	}
	return nil
}

// putBuf returns a payload buffer to the pool. The pool is bounded: beyond
// that, buffers fall back to the garbage collector.
func (k *Kernel) putBuf(b []byte) {
	if cap(b) > 0 && len(k.bufPool) < 256 {
		k.bufPool = append(k.bufPool, b[:0])
	}
}

// deliverMsg writes a delivered message into p's frame (payload in Buf,
// priority in R0) and recycles the payload of p's previous delivery. A
// received MQMsg's Data is therefore valid until the process's next
// mq_receive on any descriptor — the contract that lets the kernel pool
// payload copies instead of allocating one per send.
func (k *Kernel) deliverMsg(p *proc, msg MQMsg) {
	if p.lastMQBuf != nil {
		k.putBuf(p.lastMQBuf)
	}
	p.lastMQBuf = msg.Data
	p.frame.Buf, p.frame.R[0] = msg.Data, uint64(msg.Prio)
}

// doMQSend implements mq_send: insert by priority, block when full.
func (k *Kernel) doMQSend(self *proc, f *machine.Frame) machine.Disposition {
	k.mSendsC.Inc()
	fdesc, ok := self.fds[int32(f.R[0])]
	if !ok || !fdesc.canWrite {
		f.Err = ErrBadFD
		return machine.DispositionContinue
	}
	msg := MQMsg{Data: append(k.getBuf(), f.Buf...), Prio: uint32(f.R[1])}
	q, e := fdesc.q, fdesc.edges
	drop, delay := k.faultFor(self.name, q.name)
	if drop {
		// mq_send reports only queue-level failures; a message lost in
		// transit looks like success to the sender.
		k.putBuf(msg.Data)
		return machine.DispositionContinue
	}
	if delay > 0 {
		// Delayed delivery is asynchronous: the sender continues, the
		// message lands when the delay elapses (lost if the queue is full
		// then — delay plus backpressure exceeds the fault model).
		k.m.Clock().After(delay, func() {
			if k.mqs[q.name] != q {
				return
			}
			k.deliverToQueue(e.send, q, msg)
		})
		return machine.DispositionContinue
	}
	// A blocked reader consumes the message directly.
	if reader := k.popReader(q); reader != nil {
		k.stats.MQSends++
		k.stats.MQReceives++
		k.m.IPC().Record(e.send)
		k.m.IPC().Record(reader.recvEdge)
		k.tracer.Emit(e.mqSend, obs.OutcomeDelivered)
		k.endSpan(reader, obs.OutcomeDelivered)
		reader.phase = phaseIdle
		reader.waitToken++
		k.deliverMsg(reader, msg)
		k.wake(reader, nil)
		return machine.DispositionContinue
	}
	if len(q.msgs) >= q.maxMsgs {
		if fdesc.nonblock {
			k.putBuf(msg.Data)
			f.Err = ErrAgain
			return machine.DispositionContinue
		}
		self.phase = phaseMQSend
		self.span = k.tracer.Begin(e.mqSend)
		q.writers = append(q.writers, blockedWriter{pid: self.pid, msg: msg, send: e.send})
		return machine.DispositionBlock
	}
	k.stats.MQSends++
	k.m.IPC().Record(e.send)
	k.tracer.Emit(e.mqSend, obs.OutcomeDelivered)
	insertByPrio(q, msg)
	q.depth.Set(int64(len(q.msgs)))
	return machine.DispositionContinue
}

// doMQReceive implements mq_receive: highest priority first, block when
// empty.
func (k *Kernel) doMQReceive(self *proc, rfd int32) machine.Disposition {
	k.mRecvsC.Inc()
	f, ok := self.fds[rfd]
	if !ok || !f.canRead {
		self.frame.Err = ErrBadFD
		return machine.DispositionContinue
	}
	q := f.q
	if len(q.msgs) > 0 {
		msg := q.msgs[0]
		// Shift down instead of re-slicing: the [1:] form burns capacity,
		// so a fill/drain cycle would re-allocate on every insert.
		copy(q.msgs, q.msgs[1:])
		q.msgs[len(q.msgs)-1] = MQMsg{}
		q.msgs = q.msgs[:len(q.msgs)-1]
		k.stats.MQReceives++
		k.m.IPC().Record(f.edges.recv)
		k.tracer.Emit(f.edges.mqReceive, obs.OutcomeDelivered)
		// Unblock one writer into the freed slot.
		if w, ok := k.popWriter(q); ok {
			insertByPrio(q, w.msg)
			k.stats.MQSends++
			wp := k.procs[w.pid]
			k.m.IPC().Record(w.send)
			k.endSpan(wp, obs.OutcomeDelivered)
			wp.phase = phaseIdle
			wp.waitToken++
			k.wake(wp, nil)
		}
		q.depth.Set(int64(len(q.msgs)))
		k.deliverMsg(self, msg)
		return machine.DispositionContinue
	}
	if f.nonblock {
		self.frame.Err = ErrAgain
		return machine.DispositionContinue
	}
	self.phase = phaseMQRecv
	self.span = k.tracer.Begin(f.edges.mqReceive)
	self.recvEdge = f.edges.recv
	q.readers = append(q.readers, self.pid)
	return machine.DispositionBlock
}

// deliverToQueue lands one message on a queue outside the sender's trap
// (delayed delivery): a waiting reader gets it directly, otherwise it queues;
// a full queue loses it.
func (k *Kernel) deliverToQueue(send obs.EdgeID, q *mqueue, msg MQMsg) {
	if reader := k.popReader(q); reader != nil {
		k.stats.MQSends++
		k.stats.MQReceives++
		k.m.IPC().Record(send)
		k.m.IPC().Record(reader.recvEdge)
		k.endSpan(reader, obs.OutcomeDelivered)
		reader.phase = phaseIdle
		reader.waitToken++
		k.deliverMsg(reader, msg)
		k.wake(reader, nil)
		return
	}
	if len(q.msgs) >= q.maxMsgs {
		return
	}
	k.stats.MQSends++
	k.m.IPC().Record(send)
	insertByPrio(q, msg)
	q.depth.Set(int64(len(q.msgs)))
}

// doRespawn implements the supervisor syscall: spawn a registered image
// under its *declared* credentials (unlike fork, which inherits the
// caller's). Root only — supervision is a privileged duty, the way
// supervisord runs as root; unprivileged callers are denied and audited.
func (k *Kernel) doRespawn(self *proc, f *machine.Frame) error {
	image := f.S0
	if self.uid != 0 {
		k.dacDeny(obs.EventSyscallDenied, self.name, image, fmt.Sprintf("respawn uid=%d", self.uid))
		return fmt.Errorf("%w: respawn %q", ErrPerm, image)
	}
	img, ok := k.images[image]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownImage, image)
	}
	for _, p := range k.byUnix {
		if p.name == image {
			return fmt.Errorf("%w: %q is running", ErrExist, image)
		}
	}
	unixPID, err := k.spawn(img)
	if err != nil {
		return err
	}
	k.events.Emit(obs.SecurityEvent{
		Kind:      obs.EventRestart,
		Mechanism: obs.MechRecovery,
		Src:       self.name,
		Dst:       image,
		Detail:    fmt.Sprintf("respawn #%d", k.spawnCounts[image]-1),
	})
	f.R[0] = uint64(unixPID)
	return nil
}

// doMQUnlink implements mq_unlink: owner or root only.
func (k *Kernel) doMQUnlink(self *proc, name string) error {
	q, ok := k.mqs[name]
	if !ok {
		return fmt.Errorf("%w: queue %q", ErrNoEnt, name)
	}
	if self.uid != 0 && self.uid != q.ownerUID {
		k.dacDeny(obs.EventSyscallDenied, self.name, name, fmt.Sprintf("mq_unlink uid=%d owner=%d", self.uid, q.ownerUID))
		return fmt.Errorf("%w: unlink %q", ErrPerm, name)
	}
	delete(k.mqs, name)
	q.depth.Set(0)
	// Blocked parties get ENOENT, like a destroyed queue.
	for _, pid := range q.readers {
		if p := k.procs[pid]; p != nil && p.phase == phaseMQRecv {
			p.phase = phaseIdle
			k.endSpan(p, obs.OutcomeAborted)
			k.wake(p, fmt.Errorf("%w: queue %q unlinked", ErrNoEnt, name))
		}
	}
	for _, w := range q.writers {
		if p := k.procs[w.pid]; p != nil && p.phase == phaseMQSend {
			p.phase = phaseIdle
			k.endSpan(p, obs.OutcomeAborted)
			k.wake(p, fmt.Errorf("%w: queue %q unlinked", ErrNoEnt, name))
		}
	}
	q.readers, q.writers = nil, nil
	return nil
}

// doKill implements kill(2): same-uid or root.
func (k *Kernel) doKill(self *proc, unixPID, sig int) error {
	victim, ok := k.byUnix[unixPID]
	if !ok {
		return fmt.Errorf("%w: pid %d", ErrNoEnt, unixPID)
	}
	if self.uid != 0 && self.uid != victim.uid {
		d := k.denialFor(denialKey{op: "kill", src: self.name, uid: self.uid, pid: unixPID, sig: sig}, func() denial {
			return denial{
				detail: fmt.Sprintf("kill pid %d sig %d uid=%d", unixPID, sig, self.uid),
				trace:  fmt.Sprintf("DENY kill %d by %s (uid %d)", unixPID, self.name, self.uid),
				err:    fmt.Errorf("%w: kill %d", ErrPerm, unixPID),
			}
		})
		k.dacDeny(obs.EventKillDenied, self.name, victim.name, d.detail)
		k.m.Trace().Log("linux-dac", d.trace)
		return d.err
	}
	if sig != SIGKILL && sig != SIGTERM {
		// Non-terminating signals are absorbed.
		return nil
	}
	k.stats.Kills++
	k.mKills.Inc()
	k.events.Emit(obs.SecurityEvent{
		Kind:      obs.EventKill,
		Mechanism: obs.MechDAC,
		Src:       self.name,
		Dst:       victim.name,
		Detail:    fmt.Sprintf("uid-authorized kill sig=%d", sig),
	})
	k.m.Trace().Logf("linux", "kill %s (pid %d) by %s sig=%d", victim.name, victim.unixPID, self.name, sig)
	return k.m.Engine().Kill(victim.pid)
}

// buildWakers builds p's reusable sleep and mq_timedreceive timer
// callbacks. Each firing carries the token of the wait that armed it; a
// token that is no longer p's waitToken, or a p no longer in the process
// table (it died, and OnProcExit bumped the token too), makes the firing a
// no-op, so a pending timer of a dead process never wakes another.
func (k *Kernel) buildWakers(p *proc) {
	p.onSleep = func(token uint64) {
		if k.procs[p.pid] != p || p.waitToken != token || p.phase != phaseSleeping {
			return
		}
		p.phase = phaseIdle
		k.wake(p, nil)
	}
	p.onRecvTimeout = func(token uint64) {
		if k.procs[p.pid] != p || p.waitToken != token || p.phase != phaseMQRecv {
			return
		}
		p.phase = phaseIdle
		p.waitToken++
		q := p.waitQ
		for i, rp := range q.readers {
			if rp == p.pid {
				q.readers = append(q.readers[:i], q.readers[i+1:]...)
				break
			}
		}
		k.endSpan(p, obs.OutcomeAborted)
		k.wake(p, ErrTimeout)
	}
}

// armNet blocks p on the network under a fresh wait token, building its
// network waker on its first blocking accept or read: an accept on l or,
// with l nil, a read of up to max bytes from conn. The caller registers
// onNet with the wait's token.
func (k *Kernel) armNet(p *proc, l *vnet.Listener, conn *vnet.Conn, max int) {
	if p.onNet == nil {
		k.buildNetWaker(p)
	}
	p.phase = phaseNet
	p.waitToken++
	p.netListener, p.netConn, p.netMax = l, conn, max
}

// buildNetWaker builds p's reusable network waker. A firing completes the
// accept or read p blocked in; like the timer callbacks, a firing whose
// token is stale, or whose p is dead, does nothing.
func (k *Kernel) buildNetWaker(p *proc) {
	p.onNet = func(token uint64) {
		if k.procs[p.pid] != p || p.waitToken != token || p.phase != phaseNet {
			return
		}
		p.phase = phaseIdle
		var err error
		if l := p.netListener; l != nil {
			var conn *vnet.Conn
			if conn, err = k.cfg.Net.Accept(l); err == nil {
				p.nextFD++
				p.conns[p.nextFD] = conn
				p.frame.R[0] = uint64(p.nextFD)
			}
		} else {
			p.frame.Buf, err = k.cfg.Net.BoardRead(p.netConn, p.netMax)
		}
		p.netListener, p.netConn = nil, nil
		k.wake(p, err)
	}
}

// popReader dequeues the next still-blocked reader.
func (k *Kernel) popReader(q *mqueue) *proc {
	for len(q.readers) > 0 {
		pid := q.readers[0]
		copy(q.readers, q.readers[1:])
		q.readers = q.readers[:len(q.readers)-1]
		if p := k.procs[pid]; p != nil && p.phase == phaseMQRecv {
			return p
		}
	}
	return nil
}

// popWriter dequeues the next still-blocked writer.
func (k *Kernel) popWriter(q *mqueue) (blockedWriter, bool) {
	for len(q.writers) > 0 {
		w := q.writers[0]
		copy(q.writers, q.writers[1:])
		q.writers[len(q.writers)-1] = blockedWriter{}
		q.writers = q.writers[:len(q.writers)-1]
		if p := k.procs[w.pid]; p != nil && p.phase == phaseMQSend {
			return w, true
		}
	}
	return blockedWriter{}, false
}

// insertByPrio inserts keeping the queue sorted by descending priority,
// FIFO within a priority (POSIX semantics).
func insertByPrio(q *mqueue, msg MQMsg) {
	i := len(q.msgs)
	for i > 0 && q.msgs[i-1].Prio < msg.Prio {
		i--
	}
	q.msgs = append(q.msgs, MQMsg{})
	copy(q.msgs[i+1:], q.msgs[i:])
	q.msgs[i] = msg
}

// OnProcExit implements machine.TrapHandler.
func (k *Kernel) OnProcExit(pid machine.PID, info machine.ExitInfo) {
	p, ok := k.procs[pid]
	if !ok {
		return
	}
	if info.Crashed {
		k.m.Trace().Logf("linux", "SEGFAULT %s: %v", p.name, info.PanicValue)
	}
	k.endSpan(p, obs.OutcomeAborted)
	delete(k.procs, pid)
	delete(k.byUnix, p.unixPID)
	p.waitToken++
	// Drop the dead process from queue wait lists.
	for _, q := range k.mqs {
		for i, rp := range q.readers {
			if rp == pid {
				q.readers = append(q.readers[:i], q.readers[i+1:]...)
				break
			}
		}
		for i, w := range q.writers {
			if w.pid == pid {
				q.writers = append(q.writers[:i], q.writers[i+1:]...)
				break
			}
		}
	}
	if k.cfg.Net != nil {
		for _, l := range p.listeners {
			k.cfg.Net.CloseListener(l)
		}
		for _, c := range p.conns {
			k.cfg.Net.BoardClose(c)
		}
	}
}

// wake writes err into the error slot of p, a process blocked in a trap
// whose reply the caller has written into its frame, and readies it.
func (k *Kernel) wake(p *proc, err error) {
	p.frame.Err = err
	if err := k.m.Engine().Ready(p.pid); err != nil {
		panic(fmt.Sprintf("linuxsim: Ready(%d): %v", p.pid, err))
	}
}

// --- Network ----------------------------------------------------------------

func (k *Kernel) doNetListen(self *proc, f *machine.Frame) error {
	if k.cfg.Net == nil {
		return fmt.Errorf("%w: no network", ErrNoEnt)
	}
	l, err := k.cfg.Net.Listen(vnet.Port(f.R[0]))
	if err != nil {
		return err
	}
	self.nextFD++
	self.listeners[self.nextFD] = l
	f.R[0] = uint64(self.nextFD)
	return nil
}

func (k *Kernel) doNetAccept(self *proc, f *machine.Frame) machine.Disposition {
	l, ok := self.listeners[int32(f.R[0])]
	if !ok {
		f.Err = ErrBadFD
		return machine.DispositionContinue
	}
	conn, err := k.cfg.Net.Accept(l)
	switch {
	case err == nil:
		self.nextFD++
		self.conns[self.nextFD] = conn
		f.R[0] = uint64(self.nextFD)
		return machine.DispositionContinue
	case errors.Is(err, vnet.ErrWouldBlock):
		k.armNet(self, l, nil, 0)
		k.cfg.Net.WaitConn(l, self.onNet, self.waitToken)
		return machine.DispositionBlock
	default:
		f.Err = err
		return machine.DispositionContinue
	}
}

func (k *Kernel) doNetRead(self *proc, f *machine.Frame) machine.Disposition {
	conn, ok := self.conns[int32(f.R[0])]
	if !ok {
		f.Err = ErrBadFD
		return machine.DispositionContinue
	}
	maxBytes := int(f.R[1])
	data, err := k.cfg.Net.BoardRead(conn, maxBytes)
	switch {
	case err == nil:
		f.Buf = data
		return machine.DispositionContinue
	case errors.Is(err, vnet.ErrWouldBlock):
		k.armNet(self, nil, conn, maxBytes)
		k.cfg.Net.WaitReadable(conn, self.onNet, self.waitToken)
		return machine.DispositionBlock
	default:
		f.Err = err
		return machine.DispositionContinue
	}
}
